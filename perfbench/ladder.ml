(* bootstrap_ladder: the oracle-heavy, multi-iteration case, entirely
   in-process. A clique ladder at n = 400 keeps about a quarter of its
   edges over four protocol iterations (60 rounds, ~900 densest-star
   oracle calls), so local computation is about half of every run.
   Sockets, deltas and queries do no work here. The timed operation is
   one graph -> certified spanner: Two_spanner_local.run followed by
   Spanner_check.is_2_spanner_fast. *)

open Grapho
open Common
module S = Perfkit.Stats

let n = 400
let setups = 3

(* Every bootstrap of the same graph must be a 2-spanner with the same
   exact costs as the first. *)
let certify tally ~(first : Boot.run) (r : Boot.run) =
  let m = r.res.metrics and m0 = first.res.metrics in
  attempt tally
    (r.ok
    && Boot.size r = Boot.size first
    && r.res.iterations = first.res.iterations
    && m.rounds = m0.rounds && m.messages = m0.messages
    && m.total_bits = m0.total_bits)
    (lazy
      (if not r.ok then "bootstrap output is not a 2-spanner"
       else "repeated bootstrap of the same graph changed its exact costs"))

let run ~seed ~seconds ~trace =
  let tally = tally () in
  (* Set-up: generate the ladder and run one warm-up bootstrap, three
     times over; the graph is the same each time. *)
  let gen_s = ref [] and setup_s = ref [] and setup_raw = ref [] in
  let last = ref None in
  for _ = 1 to setups do
    let (g, warm), raw, dt =
      scaled (fun () ->
          let g, gs =
            timed (fun () -> Generators.clique_ladder (Rng.create seed) n)
          in
          gen_s := gs :: !gen_s;
          (g, Boot.timed_run ~seed g))
    in
    setup_s := dt :: !setup_s;
    setup_raw := raw :: !setup_raw;
    last := Some (g, warm)
  done;
  let g, first = Option.get !last in
  certify tally ~first first;
  anchor_gate ~what:"bootstrap_ladder" ~m:(Ugraph.m g)
    ~spanner:(Boot.size first) ~iterations:first.res.iterations;
  (* The traced pass interleaves plain and traced bootstraps, so its
     overhead is measured under the same conditions. *)
  let plain = ref [] and spanner_s = ref [] and traced = ref [] in
  let deadline = now () +. seconds in
  while now () < deadline || List.length !plain < 3 do
    let r, _, dt = scaled (fun () -> Boot.timed_run ~seed g) in
    certify tally ~first r;
    plain := r :: !plain;
    spanner_s := dt :: !spanner_s;
    if trace then begin
      let t = Boot.traced_run ~seed g in
      certify tally ~first t.tr;
      traced := t :: !traced
    end
  done;
  let m0 = first.res.metrics in
  let raw = S.of_list (List.map Boot.total !plain) in
  let spanner = S.of_list !spanner_s in
  let setup = S.of_list !setup_s in
  let size_ratio =
    float_of_int (Boot.size first) /. float_of_int (Ugraph.m g)
  in
  let drift =
    float_of_int (Boot.size (List.hd !plain)) /. float_of_int (Boot.size first)
  in
  let tail_p, tail = S.tail spanner in
  print_endline
    (Printf.sprintf "bootstrap_ladder  n=%d m=%d seed=%d" (Ugraph.n g)
       (Ugraph.m g) seed);
  line "setup_s" (S.median setup) "s"
    (Printf.sprintf "(median of %d; raw %.4g)" setups
       (S.median (S.of_list !setup_raw)));
  line "spanner_s" (S.median spanner) "s"
    (Printf.sprintf "(median of n=%d, quartile spread %.3f; raw %.4g)"
       (S.count spanner) (S.spread spanner) (S.median raw));
  line "op_us_tail" (1e6 *. tail) "us"
    (Printf.sprintf "(p%d of n=%d)" tail_p (S.count spanner));
  line "size_ratio" size_ratio "ratio" "(exact)";
  line "rounds" (float_of_int m0.rounds) "count" "(exact)";
  line "messages" (float_of_int m0.messages) "count" "(exact)";
  line "total_bits" (float_of_int m0.total_bits) "bit" "(exact)";
  line "iterations" (float_of_int first.res.iterations) "count" "(exact)";
  let end_to_end =
    [
      ("setup_s", S.median setup);
      ("spanner_s", S.median spanner);
      ("op_us_p50", 1e6 *. S.median spanner);
      ("op_us_tail", 1e6 *. tail);
      ("ops_per_s", float_of_int (S.count spanner) /. S.sum spanner);
      ("size_ratio", size_ratio);
      ("rounds", float_of_int m0.rounds);
      ("messages", float_of_int m0.messages);
      ("total_bits", float_of_int m0.total_bits);
      ("drift_ratio", drift);
    ]
  in
  let per_layer =
    if not trace then []
    else
      let tr = !traced in
      let traced_total = List.map (fun (t : Boot.traced) -> Boot.total t.tr) tr in
      [ ("grapho.gen_ms", Boot.ms (S.median (S.of_list !gen_s))) ]
      @ Boot.layers tally tr
      @ Boot.ledger ~what:"one traced bootstrap (mean)"
          ~e2e_ms:(Boot.ms (Boot.mean_of Fun.id traced_total))
          ~items:
            (List.map
               (fun p ->
                 (Perfkit.Metrics.phase_metric p, Boot.mean_of (Boot.phase_ms p) tr))
               Perfkit.Metrics.phases
            @ [
                ( "spanner_core.certify_ms",
                  Boot.mean_of (fun (t : Boot.traced) -> Boot.ms t.tr.certify_s) tr );
              ])
      @ Boot.overhead
          ~plain_ms:(Boot.ms (S.median raw))
          ~traced_ms:(Boot.ms (S.median (S.of_list traced_total)))
  in
  { tally; end_to_end; per_layer }
