(* The repository's benchmark: three workloads, each certified
   output by output, reported as the end-to-end metrics of
   BENCHMARK.json (--trace 0) or, from a separate traced pass, as the
   per-layer metrics with their ledger (--trace 1).

     spbench --workload bootstrap_ladder|serve_query|serve_churn
             --seed N --seconds S --trace 0|1

   Human-readable lines (every percentile with its sample count) come
   first; the last line is one JSON object. A workload that no longer
   exercises the algorithm fails hard, with no result line. Build and
   run it through perfbench/run.py from the repository root. *)

open Common

let workloads =
  [
    ("bootstrap_ladder", Ladder.run);
    ("serve_query", Serve.query);
    ("serve_churn", Serve.churn);
  ]

let usage () =
  prerr_endline
    "usage: spbench --workload bootstrap_ladder|serve_query|serve_churn \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k conv =
    match List.assoc_opt k opts with
    | Some v -> ( try conv v with _ -> usage ())
    | None -> usage ()
  in
  let name = get "--workload" Fun.id in
  let seed = get "--seed" int_of_string in
  let seconds = get "--seconds" float_of_string in
  let trace =
    get "--trace" (function "0" -> false | "1" -> true | _ -> raise Exit)
  in
  let work = try List.assoc name workloads with Not_found -> usage () in
  if seconds <= 0.0 then usage ();
  at_exit (fun () ->
      Serve.reap ();
      remove_scratch ());
  match work ~seed ~seconds ~trace with
  | exception Gate why ->
      prerr_endline ("perfbench: anchor gate: " ^ why);
      exit 3
  | r ->
      let t = r.tally in
      Printf.printf "  %-36s %16.6g %-6s (%d failed of %d attempted)\n"
        "error_frac"
        (float_of_int t.failed /. float_of_int (max 1 t.attempted))
        "ratio" t.failed t.attempted;
      let specs, values =
        if not trace then (Perfkit.Metrics.end_to_end, r.end_to_end)
        else
          (* Layers a workload does not exercise did no work: they read 0. *)
          let idle =
            List.filter_map
              (fun (s : Perfkit.Metrics.spec) ->
                if List.mem_assoc s.name r.per_layer then None else Some s.name)
              Perfkit.Metrics.per_layer
          in
          if idle <> [] then
            Printf.printf "  idle on this workload (0): %s\n"
              (String.concat " " idle);
          ( Perfkit.Metrics.per_layer,
            r.per_layer @ List.map (fun n -> (n, 0.0)) idle )
      in
      print_endline
        (Perfkit.Metrics.result_line ~correct:(correct t)
           ~attempted:t.attempted ~failed:t.failed specs values)
