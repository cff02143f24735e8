(* The benchmark's metric registry, its name grammar, and the one-line
   JSON result the benchmark prints last.

   The two lists below are the names BENCHMARK.json declares; the test
   suite holds them equal, and [result_line] refuses a run that
   produced a different set. *)

type spec = { name : string; unit : string }

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* A name starts with a letter or digit and has at most 64 letters,
   digits, '_', '.' and '-'. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

(* A unit has 1 to 16 letters, digits, '_', '/', '%', '.' and '-'. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || String.contains "_/%.-" c)
       s

let spec name unit = { name; unit }

let end_to_end =
  [
    spec "setup_s" "s";
    spec "spanner_s" "s";
    spec "op_us_p50" "us";
    spec "op_us_tail" "us";
    spec "ops_per_s" "1/s";
    spec "size_ratio" "ratio";
    spec "rounds" "count";
    spec "messages" "count";
    spec "total_bits" "bit";
    spec "drift_ratio" "ratio";
  ]

(* The LOCAL protocol's phase schedule (Two_spanner_local.phase_names
   plus the warm-up rounds), one profile row each. *)
let phases =
  [
    "warmup"; "density"; "max1"; "candidate"; "vote"; "tally"; "accept";
    "fresh"; "rho"; "max1-rho"; "terminate"; "final"; "restart";
  ]

let phase_metric p = "distsim.phase." ^ p ^ "_ms"

let per_layer =
  [
    spec "grapho.gen_ms" "ms";
    spec "grapho.loadfile_parse_ms" "ms";
    spec "grapho.apply_delta_ms_p50" "ms";
    spec "grapho.delta_entries" "count";
    spec "netflow.densest_calls" "count";
    spec "netflow.calls_per_iteration" "calls/iter";
    spec "distsim.steps" "count";
    spec "distsim.minor_words" "words";
    spec "distsim.round_ms_p50" "ms";
  ]
  @ List.map (fun p -> spec (phase_metric p) "ms") phases
  @ [
      spec "spanner_core.run_ms" "ms";
      spec "spanner_core.certify_ms" "ms";
      spec "spanner_core.iterations" "count";
      spec "spanner_core.query_path_us_p50" "us";
      spec "spanner_core.query_path_us_p99" "us";
      spec "spanner_core.hops_mean" "hops";
      spec "spanner_core.nopath_frac" "ratio";
      spec "spanner_core.apply_ms_p50" "ms";
      spec "spanner_core.valid_ms_p50" "ms";
      spec "spanner_core.spanner_csr_ms_p50" "ms";
      spec "spanner_core.seeds" "count";
      spec "spanner_core.candidates" "count";
      spec "spanner_core.broken" "count";
      spec "spanner_core.dirty" "count";
      spec "spanner_core.repair_rounds" "count";
      spec "spanner_core.broken_per_candidate" "ratio";
      spec "spanner_core.dirty_frac" "ratio";
      spec "spannernet.parse_us.query" "us";
      spec "spannernet.parse_us.churn" "us";
      spec "spannernet.handle_us.query" "us";
      spec "spannernet.handle_us.churn" "us";
      spec "spannernet.print_us.query" "us";
      spec "spannernet.print_us.churn" "us";
      spec "spannernet.feed_us_p50" "us";
      spec "spannernet.transport_us" "us";
      spec "spannernet.churn_busy_frac" "ratio";
      spec "loadgen.late_ms_p99" "ms";
      spec "loadgen.backlog_end" "count";
      spec "trace.overhead_ms" "ms";
      spec "trace.overhead_frac" "ratio";
      spec "ledger.e2e_ms" "ms";
      spec "ledger.layers_ms" "ms";
      spec "ledger.unattributed_ms" "ms";
      spec "ledger.unattributed_frac" "ratio";
    ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Metrics.json_number: not finite"

(* The closing line: exactly the metrics of [specs], each with its
   unit, in declaration order. *)
let result_line ~correct ~attempted ~failed specs values =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun s -> s.name = name) specs) then
        invalid_arg ("Metrics.result_line: undeclared metric " ^ name))
    values;
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i s ->
      let v =
        match List.filter (fun (n, _) -> n = s.name) values with
        | [ (_, v) ] -> v
        | [] -> invalid_arg ("Metrics.result_line: missing metric " ^ s.name)
        | _ -> invalid_arg ("Metrics.result_line: repeated metric " ^ s.name)
      in
      Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        s.name (json_number v) s.unit)
    specs;
  Buffer.add_string b "}}";
  Buffer.contents b
