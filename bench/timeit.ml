(* Wall-clock repeat timer for the protocol hot paths.

   Times fixed multi-millisecond end-to-end protocol workloads over
   many repetitions on a busy machine and reports the best
   (least-interfered) wall-clock per run. It is the
   tool used for the before/after numbers in EXPERIMENTS.md and the
   wall-clock fields of BENCH_PR*.json.

   Usage: dune exec bench/timeit.exe [-- reps [workload ...]] *)

open Grapho
module C = Spanner_core

let rng seed = Rng.create seed

let workloads () =
  [
    ( "e8_local_caveman",
      let g = Generators.caveman (rng 23) 8 8 0.03 in
      fun () -> ignore (C.Two_spanner_local.run ~seed:3 g) );
    ( "e15_congest",
      let g = Generators.caveman (rng 24) 6 6 0.04 in
      fun () -> ignore (C.Two_spanner_local.run_congest ~seed:3 g) );
    ( "e13_local_protocol",
      let g = Generators.caveman (rng 19) 4 6 0.05 in
      fun () -> ignore (C.Two_spanner_local.run ~seed:3 g) );
    ( "e15_congest_port",
      let g = Generators.caveman (rng 21) 4 6 0.05 in
      fun () -> ignore (C.Two_spanner_local.run_congest ~seed:3 g) );
    ( "e2_gnp_400_local",
      let g = Generators.gnp_connected (rng 400) 400 0.1 in
      fun () -> ignore (C.Two_spanner_local.run ~seed:3 g) );
  ]

let best_of ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Distsim.Clock.now_s () in
    f ();
    let dt = Distsim.Clock.now_s () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let () =
  let reps, only =
    match Array.to_list Sys.argv with
    | _ :: r :: rest -> ((try int_of_string r with _ -> 7), rest)
    | _ -> (7, [])
  in
  let selected =
    List.filter
      (fun (name, _) -> only = [] || List.mem name only)
      (workloads ())
  in
  Printf.printf "%-24s %12s  (best of %d)\n" "workload" "ms/run" reps;
  List.iter
    (fun (name, f) ->
      f () (* warm-up *);
      let s = best_of ~reps f in
      Printf.printf "%-24s %12.2f\n" name (1000.0 *. s))
    selected
