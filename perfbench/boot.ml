(* One graph -> certified spanner, plain or traced, and the per-layer
   numbers a set of traced bootstraps yields. Shared by the in-process
   ladder and by the socket workloads, which reproduce the daemon's
   bootstrap in-process to cross-check it. *)

open Grapho
open Common
module C = Spanner_core
module S = Perfkit.Stats
module Profile = Distsim.Profile
module Trace = Distsim.Trace

type run = {
  res : C.Two_spanner_local.result;
  run_s : float;
  certify_s : float;
  ok : bool;
}

let total r = r.run_s +. r.certify_s
let size r = Edge.Set.cardinal r.res.spanner

let timed_run ?profile ?trace ~seed g =
  let res, run_s =
    timed (fun () -> C.Two_spanner_local.run ~seed ?profile ?trace g)
  in
  let ok, certify_s =
    timed (fun () -> C.Spanner_check.is_2_spanner_fast g res.spanner)
  in
  { res; run_s; certify_s; ok }

(* A traced bootstrap: the engine's profile (phase spans), a sink that
   keeps every round's elapsed time, and the oracle's call counter. *)
type traced = {
  tr : run;
  rounds_ns : int list;
  phases : Profile.phase_row list;
  calls : int;
}

let traced_run ~seed g =
  let p = Profile.create () in
  let rounds_ns = ref [] in
  let keep =
    Trace.custom ~sends:false (function
      | Trace.Round_end st -> rounds_ns := st.elapsed_ns :: !rounds_ns
      | _ -> ())
  in
  let c0 = !Netflow.Densest.solver_calls in
  let tr =
    timed_run ~profile:p ~trace:(Trace.tee (Profile.sink p) keep) ~seed g
  in
  {
    tr;
    rounds_ns = !rounds_ns;
    phases = Profile.phase_breakdown p;
    calls = !Netflow.Densest.solver_calls - c0;
  }

let ms s = 1e3 *. s

let phase_ms name t =
  List.fold_left
    (fun a (row : Profile.phase_row) ->
      if row.phase = name then a +. (1e-6 *. float_of_int row.total_ns) else a)
    0.0 t.phases

let mean_of f l =
  List.fold_left (fun a x -> a +. f x) 0.0 l /. float_of_int (List.length l)

(* The bootstrap's layers: oracle, engine, phases, run and certify.
   [extra_calls]/[extra_iterations] add the oracle work of later
   protocol runs (churn repairs) to the oracle's count. *)
let layers ?(extra_calls = 0) ?(extra_iterations = 0) tally traced =
  let first = List.hd traced in
  if List.exists (fun t -> t.calls <> first.calls) traced then
    reject tally "densest-oracle call count differs between identical runs";
  let rounds =
    S.of_list
      (List.concat_map
         (fun t -> List.map (fun ns -> 1e-6 *. float_of_int ns) t.rounds_ns)
         traced)
  in
  pline "distsim.round_ms_p50" rounds 50 1.0 "ms";
  let calls = first.calls + extra_calls in
  let its = first.tr.res.iterations + extra_iterations in
  [
    ("netflow.densest_calls", float_of_int calls);
    ("netflow.calls_per_iteration", float_of_int calls /. float_of_int its);
    ("distsim.steps", float_of_int first.tr.res.metrics.steps);
    ("distsim.minor_words", mean_of (fun t -> t.tr.res.metrics.minor_words) traced);
    ("distsim.round_ms_p50", S.median rounds);
  ]
  @ List.map
      (fun p -> (Perfkit.Metrics.phase_metric p, mean_of (phase_ms p) traced))
      Perfkit.Metrics.phases
  @ [
      ("spanner_core.run_ms", mean_of (fun t -> ms t.tr.run_s) traced);
      ("spanner_core.certify_ms", mean_of (fun t -> ms t.tr.certify_s) traced);
      ("spanner_core.iterations", float_of_int first.tr.res.iterations);
    ]

let ledger ~what ~e2e_ms ~items =
  let layers = List.fold_left (fun a (_, v) -> a +. v) 0.0 items in
  print_endline (Printf.sprintf "ledger: %s" what);
  List.iter (fun (name, v) -> line name v "ms" "") items;
  line "layers" layers "ms" "(sum)";
  line "end_to_end" e2e_ms "ms" "";
  line "unattributed" (e2e_ms -. layers) "ms"
    (Printf.sprintf "(%.2f%% of end_to_end)" (100.0 *. (e2e_ms -. layers) /. e2e_ms));
  [
    ("ledger.e2e_ms", e2e_ms);
    ("ledger.layers_ms", layers);
    ("ledger.unattributed_ms", e2e_ms -. layers);
    ("ledger.unattributed_frac", (e2e_ms -. layers) /. e2e_ms);
  ]

let overhead ~plain_ms ~traced_ms =
  line "trace overhead" (traced_ms -. plain_ms) "ms"
    (Printf.sprintf "(traced %.4g - untraced %.4g)" traced_ms plain_ms);
  [
    ("trace.overhead_ms", traced_ms -. plain_ms);
    ("trace.overhead_frac", (traced_ms -. plain_ms) /. plain_ms);
  ]
