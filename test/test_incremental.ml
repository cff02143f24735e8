(* Incremental churn repair: per-tick validity against the fast
   checker (itself pinned to the BFS checker here), determinism of
   the repaired spanner across schedulers and shard counts, and the
   engine's sparse-activation contract. *)

open Grapho
module C = Spanner_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let families =
  [
    ("gnp", fun s -> Generators.gnp_connected (Rng.create s) 70 0.08);
    ("pa", fun s -> Generators.preferential_attachment (Rng.create s) 80 5);
    ("caveman", fun s -> Generators.caveman (Rng.create s) 6 8 0.08);
  ]

(* ------------------------------------------------------------------ *)
(* Fast validity checker == BFS checker, on spanners and non-spanners. *)

let test_fast_checker () =
  List.iter
    (fun (name, mk) ->
      let g = mk 3 in
      let r = C.Two_spanner_local.run ~seed:9 g in
      check (name ^ ": protocol spanner fast-valid") true
        (C.Spanner_check.is_2_spanner_fast g r.spanner);
      check (name ^ ": agrees on spanner") true
        (C.Spanner_check.is_spanner g r.spanner ~k:2
        = C.Spanner_check.is_2_spanner_fast g r.spanner);
      (* Thin the spanner edge by edge until the checkers must say no;
         they must agree at every step. *)
      let s = ref r.spanner in
      let i = ref 0 in
      Edge.Set.iter
        (fun e ->
          incr i;
          if !i mod 3 = 0 then begin
            s := Edge.Set.remove e !s;
            check
              (Printf.sprintf "%s: agree after %d removals" name !i)
              true
              (C.Spanner_check.is_spanner g !s ~k:2
              = C.Spanner_check.is_2_spanner_fast g !s)
          end)
        r.spanner)
    families;
  (* Subset violation raises in both. *)
  let g = Generators.path 4 in
  let bogus = Edge.Set.singleton (Edge.make 0 3) in
  (match C.Spanner_check.is_2_spanner_fast g bogus with
  | _ -> Alcotest.fail "foreign edge accepted"
  | exception Invalid_argument _ -> ())

(* The CSR checker against the BFS checker on seeded subsets of the
   graph's edges: protocol spanners (valid) and random thinnings of
   them and of the graph (mostly invalid). Both verdicts must occur. *)
let test_csr_checker () =
  let seen = Array.make 2 0 in
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun gseed ->
          let g = mk gseed in
          let n = Ugraph.n g in
          let rng = Rng.create (100 + gseed) in
          let thin keep_one_in s =
            Edge.Set.filter (fun _ -> Rng.int rng keep_one_in <> 0) s
          in
          let r = C.Two_spanner_local.run ~seed:gseed g in
          List.iteri
            (fun i s ->
              let bfs = C.Spanner_check.is_spanner g s ~k:2 in
              let csr =
                C.Spanner_check.is_2_spanner_csr g
                  (C.Spanner_check.spanner_csr ~n s)
              in
              seen.(Bool.to_int bfs) <- seen.(Bool.to_int bfs) + 1;
              check (Printf.sprintf "%s/%d subset %d" name gseed i) bfs csr)
            [
              r.spanner;
              thin 10 r.spanner;
              thin 4 r.spanner;
              thin 2 (Ugraph.edge_set g);
              thin 3 (Ugraph.edge_set g);
              Edge.Set.empty;
            ])
        [ 1; 2; 3; 4 ])
    families;
  check "some subsets valid" true (seen.(1) > 0);
  check "some subsets invalid" true (seen.(0) > 0);
  (* A spanner edge outside the graph raises, as does a vertex-count
     mismatch. *)
  let g = Generators.path 4 in
  let raises sg =
    match C.Spanner_check.is_2_spanner_csr g sg with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check "foreign edge raises" true
    (raises (Ugraph.of_edges ~n:4 [ (0, 1); (0, 3) ]));
  check "foreign last edge raises" true
    (raises (Ugraph.of_edges ~n:4 [ (1, 2); (2, 3); (1, 3) ]));
  check "vertex count raises" true (raises (Ugraph.of_edges ~n:5 [ (0, 1) ]));
  (* Past the end of both graph rows: an edge to an isolated vertex. *)
  check "foreign edge past both rows raises" true
    (match
       C.Spanner_check.is_2_spanner_csr
         (Ugraph.of_edges ~n:4 [ (0, 1); (1, 2) ])
         (Ugraph.of_edges ~n:4 [ (2, 3) ])
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* The verdict allocates nothing per edge or per row. *)
  let g = Generators.gnp_connected (Rng.create 12) 400 0.05 in
  let sg =
    C.Spanner_check.spanner_csr ~n:400 (C.Two_spanner_local.run g).spanner
  in
  check "protocol spanner valid" true (C.Spanner_check.is_2_spanner_csr g sg);
  let before = Gc.minor_words () in
  let ok = C.Spanner_check.is_2_spanner_csr g sg in
  let spent = Gc.minor_words () -. before in
  check "still valid" true ok;
  check (Printf.sprintf "checker minor words %.0f" spent) true (spent < 64.0)

(* ------------------------------------------------------------------ *)
(* Sparse activation. *)

let test_active_full_set () =
  (* active = all vertices is the plain run, state for state. *)
  let g = Generators.gnp_connected (Rng.create 5) 50 0.12 in
  let act = Array.init (Ugraph.n g) Fun.id in
  let full = C.Two_spanner_local.run ~seed:11 g in
  let sparse = C.Two_spanner_local.run ~seed:11 ~active:act g in
  check "full-set spanner equal" true
    (Edge.Set.equal full.spanner sparse.spanner);
  check_int "full-set iterations" full.iterations sparse.iterations;
  check "full-set metrics" true
    (Distsim.Engine.metrics_deterministic_eq full.metrics sparse.metrics)

let test_active_subset () =
  let g = Generators.gnp_connected (Rng.create 6) 60 0.15 in
  (* An arbitrary subset; the protocol runs on the induced subgraph. *)
  let act = Array.of_list (List.init 25 (fun i -> 2 * i)) in
  let r = C.Two_spanner_local.run ~seed:7 ~active:act g in
  let member = Array.make (Ugraph.n g) false in
  Array.iter (fun v -> member.(v) <- true) act;
  let induced =
    Ugraph.of_edge_iter ~n:(Ugraph.n g) (fun emit ->
        Ugraph.iter_edges_uv
          (fun u v -> if member.(u) && member.(v) then emit u v)
          g)
  in
  Edge.Set.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      check "spanner edge inside ball" true (member.(u) && member.(v)))
    r.spanner;
  check "valid on induced subgraph" true
    (C.Spanner_check.is_spanner induced r.spanner ~k:2);
  (* And identical to running the protocol on the induced subgraph
     directly (global ids coincide, so the vote streams do too). *)
  let direct = C.Two_spanner_local.run ~seed:7 induced in
  let direct_restricted =
    (* The direct run also covers the frozen vertices (isolated in
       [induced]), which add no edges; the spanners must coincide. *)
    direct.spanner
  in
  check "matches induced-subgraph run" true
    (Edge.Set.equal direct_restricted r.spanner)

let test_active_guards () =
  let g = Generators.path 6 in
  let expect_invalid name f =
    match f () with
    | (_ : C.Two_spanner_local.result) -> Alcotest.fail name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "descending active" (fun () ->
      C.Two_spanner_local.run ~active:[| 2; 1 |] g);
  expect_invalid "duplicate active" (fun () ->
      C.Two_spanner_local.run ~active:[| 1; 1 |] g);
  expect_invalid "out-of-range active" (fun () ->
      C.Two_spanner_local.run ~active:[| 4; 6 |] g);
  expect_invalid "frugal + active" (fun () ->
      C.Two_spanner_local.run
        ~frugal:(Distsim.Frugal.create g)
        ~active:[| 0; 1 |] g)

(* ------------------------------------------------------------------ *)
(* Churn traces: validity every tick, determinism across engines. *)

let run_trace ?sched ?par ~seed ~gseed ~ticks mk =
  let g = mk gseed in
  let inc, (_ : C.Two_spanner_local.result) =
    C.Incremental.bootstrap ~seed ?sched ?par g
  in
  let rng = Rng.create (seed lxor (31 * gseed)) in
  let d = Ugraph.Delta.create () in
  let replace = max 1 (Ugraph.m g / 50) in
  let stats = ref [] in
  for _ = 1 to ticks do
    C.Incremental.churn ~rng ~replace (C.Incremental.graph inc) d;
    let st = C.Incremental.apply ?sched ?par inc d in
    stats := st :: !stats
  done;
  (inc, List.rev !stats)

let test_churn_validity () =
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun gseed ->
          let inc, stats = run_trace ~seed:13 ~gseed ~ticks:6 mk in
          List.iter
            (fun (st : C.Incremental.tick_stats) ->
              check
                (Printf.sprintf "%s/%d tick %d sane" name gseed st.tick)
                true
                (st.deleted > 0 && st.inserted > 0
                && st.seeds > 0
                && st.candidates >= st.broken
                && (st.broken = 0 || st.dirty >= 2)))
            stats;
          (* The final fast verdict, and the final BFS verdict. *)
          check
            (Printf.sprintf "%s/%d final fast-valid" name gseed)
            true
            (C.Incremental.valid inc);
          check
            (Printf.sprintf "%s/%d final bfs-valid" name gseed)
            true
            (C.Spanner_check.is_spanner
               (C.Incremental.graph inc)
               (C.Incremental.spanner inc)
               ~k:2);
          check_int
            (Printf.sprintf "%s/%d ticks applied" name gseed)
            6 (C.Incremental.tick inc))
        [ 1; 2; 3 ])
    families

(* Every-tick validity (not just final): re-run one trace checking
   after each tick. *)
let test_churn_validity_per_tick () =
  let _, mk = List.hd families in
  let g = mk 4 in
  let inc, _ = C.Incremental.bootstrap ~seed:17 g in
  let rng = Rng.create 99 in
  let d = Ugraph.Delta.create () in
  for tick = 1 to 8 do
    C.Incremental.churn ~rng ~replace:5 (C.Incremental.graph inc) d;
    let st = C.Incremental.apply inc d in
    check_int (Printf.sprintf "tick %d number" tick) tick st.tick;
    check (Printf.sprintf "tick %d fast-valid" tick) true
      (C.Incremental.valid inc);
    check (Printf.sprintf "tick %d bfs-valid" tick) true
      (C.Spanner_check.is_spanner
         (C.Incremental.graph inc)
         (C.Incremental.spanner inc)
         ~k:2);
    check (Printf.sprintf "tick %d dirty covers broken" tick) true
      (st.broken = 0 || st.dirty > 0)
  done

let test_churn_determinism () =
  let _, mk = List.nth families 1 in
  let configs =
    [
      ("seq", None, None);
      ("par2", None, Some 2);
      ("par4", None, Some 4);
      ("naive", Some `Naive, None);
    ]
  in
  let runs =
    List.map
      (fun (name, sched, par) ->
        let inc, stats = run_trace ?sched ?par ~seed:23 ~gseed:2 ~ticks:5 mk in
        (name, C.Incremental.spanner inc, C.Incremental.graph inc, stats))
      configs
  in
  match runs with
  | [] -> assert false
  | (_, s0, g0, st0) :: rest ->
      List.iter
        (fun (name, s, g, st) ->
          check (name ^ ": same graph") true (Ugraph.equal g0 g);
          check (name ^ ": same spanner") true (Edge.Set.equal s0 s);
          check (name ^ ": same tick stats") true (st = st0))
        rest

(* Churn composed with a PR 5 fault schedule: the ball-local repair
   runs under drops + a fraction crash. Under crashes a tick may leave
   the spanner invalid (the repair can terminate without covering
   every dirty edge), so the contract here is determinism, not
   validity: the whole faulted trace — graph, spanner, tick stats and
   the per-tick verdict — is bit-identical across engine schedulers
   and shard counts. *)
let test_churn_faulted_determinism () =
  let _, mk = List.nth families 1 in
  let schedule = "drop=0.05,crash=0.1@r3,seed=42" in
  let run_faulted ?sched ?par () =
    let g = mk 2 in
    let adversary =
      Distsim.Faults.compile ~n:(Ugraph.n g)
        (Result.get_ok (Distsim.Faults.parse schedule))
    in
    let inc, (_ : C.Two_spanner_local.result) =
      C.Incremental.bootstrap ~seed:23 ?sched ?par g
    in
    let rng = Rng.create 71 in
    let d = Ugraph.Delta.create () in
    let replace = max 1 (Ugraph.m g / 50) in
    let trace = ref [] in
    for _ = 1 to 5 do
      C.Incremental.churn ~rng ~replace (C.Incremental.graph inc) d;
      let st = C.Incremental.apply ?sched ?par ~adversary ~retry:2 inc d in
      trace := (st, C.Incremental.valid inc) :: !trace
    done;
    (C.Incremental.graph inc, C.Incremental.spanner inc, List.rev !trace)
  in
  let g0, s0, t0 = run_faulted () in
  List.iter
    (fun (name, sched, par) ->
      let g, s, t = run_faulted ?sched ?par () in
      check (name ^ ": same graph") true (Ugraph.equal g0 g);
      check (name ^ ": same spanner") true (Edge.Set.equal s0 s);
      check (name ^ ": same stats+verdicts") true (t = t0))
    [ ("par2", None, Some 2); ("naive", Some `Naive, None) ];
  (* The faulted trace exercised the fault machinery at all: at least
     one tick actually repaired something (else the adversary was
     never consulted and the test is vacuous). *)
  check "some tick repaired" true
    (List.exists (fun ((st : C.Incremental.tick_stats), _) -> st.broken > 0) t0)

(* A test-local copy of the set-based pipeline [apply] replaced:
   restrict S to the new graph, rebuild its CSR, sweep the seeds'
   edges, re-run the protocol on the dirty ball, union. *)
let reference_tick ~seed ~tick g s d =
  let g' = Ugraph.apply_delta g d in
  let n = Ugraph.n g' in
  let s' = C.Resilience.surviving_edges s ~graph:g' in
  let scsr = C.Spanner_check.spanner_csr ~n s' in
  let is_seed = Array.make n false and dirty = Array.make n false in
  let seeds = ref [] in
  let add_seed u v =
    List.iter
      (fun x ->
        if not is_seed.(x) then begin
          is_seed.(x) <- true;
          seeds := x :: !seeds
        end)
      [ u; v ]
  in
  Ugraph.Delta.iter_deletes add_seed d;
  Ugraph.Delta.iter_inserts add_seed d;
  let broken = ref 0 in
  List.iter
    (fun u ->
      Ugraph.iter_neighbors
        (fun v ->
          if
            (not (is_seed.(v) && v < u))
            && not (C.Spanner_check.covers_edge_2 ~spanner_csr:scsr u v)
          then begin
            incr broken;
            dirty.(u) <- true;
            dirty.(v) <- true;
            Ugraph.iter_common_neighbors (fun w -> dirty.(w) <- true) g' u v
          end)
        g' u)
    !seeds;
  let active =
    Array.of_list (List.filter (fun v -> dirty.(v)) (List.init n Fun.id))
  in
  let s'' =
    if !broken = 0 then s'
    else
      let tick_seed = seed lxor (tick * 0x85EBCA77) lxor 0x165667B1 in
      Edge.Set.union s'
        (C.Two_spanner_local.run ~seed:tick_seed ~active g').spanner
  in
  (g', s'', !broken, Array.length active)

let test_churn_reference_replay () =
  let seed = 29 in
  let g0 = Generators.caveman (Rng.create 5) 8 9 0.1 in
  let inc, _ = C.Incremental.bootstrap ~seed g0 in
  let rng = Rng.create 61 in
  let d = Ugraph.Delta.create () in
  let g = ref g0 and s = ref (C.Incremental.spanner inc) in
  let repaired = ref 0 in
  for tick = 1 to 60 do
    C.Incremental.churn ~rng ~replace:4 !g d;
    let g', s', broken, dirty = reference_tick ~seed ~tick !g !s d in
    let st = C.Incremental.apply inc d in
    let at what = Printf.sprintf "tick %d: %s" tick what in
    check (at "same graph") true (Ugraph.equal g' (C.Incremental.graph inc));
    check (at "same spanner") true
      (Edge.Set.equal s' (C.Incremental.spanner inc));
    check_int (at "broken") broken st.broken;
    check_int (at "dirty") dirty st.dirty;
    let sg = C.Incremental.spanner_csr inc in
    check_int (at "csr size = set size") (Ugraph.m sg)
      (Edge.Set.cardinal (C.Incremental.spanner inc));
    check_int (at "csr size = spanner_size") (Ugraph.m sg) st.spanner_size;
    check (at "csr = set") true
      (Ugraph.equal sg
         (C.Spanner_check.spanner_csr ~n:(Ugraph.n g') s'));
    check (at "valid") true (C.Incremental.valid inc);
    if broken > 0 then incr repaired;
    g := g';
    s := s'
  done;
  check "some ticks repaired" true (!repaired > 10)

(* A rejected delta leaves graph, spanner CSR, set view and tick as
   they were, and the next tick runs exactly as if it never came. *)
let test_churn_rejected_delta () =
  let _, mk = List.hd families in
  let fresh () =
    let inc, _ = C.Incremental.bootstrap ~seed:3 (mk 6) in
    let d = Ugraph.Delta.create () in
    let rng = Rng.create 19 in
    for _ = 1 to 3 do
      C.Incremental.churn ~rng ~replace:5 (C.Incremental.graph inc) d;
      ignore (C.Incremental.apply inc d : C.Incremental.tick_stats)
    done;
    (inc, rng, d)
  in
  let inc, rng, d = fresh () in
  let g = C.Incremental.graph inc and sg = C.Incremental.spanner_csr inc in
  let s = C.Incremental.spanner inc in
  let n = Ugraph.n g in
  let u, v = Ugraph.slot_endpoints g 0 in
  let absent =
    let rec find w =
      if Ugraph.mem_edge g u w || w = u then find (w + 1) else w
    in
    find 0
  in
  (* A spanner edge is among the deletions, so a buggy apply would
     have a spanner diff to leak. *)
  let su, sv = Ugraph.slot_endpoints sg 0 in
  List.iter
    (fun (name, fill) ->
      Ugraph.Delta.reset d;
      fill d;
      (match C.Incremental.apply inc d with
      | _ -> Alcotest.fail (name ^ ": accepted")
      | exception Invalid_argument _ -> ());
      check (name ^ ": graph") true (Ugraph.equal g (C.Incremental.graph inc));
      check (name ^ ": csr") true
        (Ugraph.equal sg (C.Incremental.spanner_csr inc));
      check (name ^ ": set") true
        (Edge.Set.equal s (C.Incremental.spanner inc));
      check_int (name ^ ": tick") 3 (C.Incremental.tick inc))
    [
      ("absent delete", fun d ->
          Ugraph.Delta.add_delete d su sv;
          Ugraph.Delta.add_delete d u absent);
      ("present insert", fun d ->
          Ugraph.Delta.add_delete d su sv;
          Ugraph.Delta.add_insert d u v);
      ("both sides", fun d ->
          Ugraph.Delta.add_delete d su sv;
          Ugraph.Delta.add_insert d sv su);
      ("duplicate", fun d ->
          Ugraph.Delta.add_delete d su sv;
          Ugraph.Delta.add_delete d sv su);
      ("out of range", fun d ->
          Ugraph.Delta.add_delete d su sv;
          Ugraph.Delta.add_insert d 0 n);
    ];
  let twin, twin_rng, twin_d = fresh () in
  C.Incremental.churn ~rng ~replace:5 g d;
  C.Incremental.churn ~rng:twin_rng ~replace:5 g twin_d;
  let st = C.Incremental.apply inc d in
  check "next tick as if never rejected" true
    (st = C.Incremental.apply twin twin_d);
  check "same spanner after" true
    (Edge.Set.equal (C.Incremental.spanner twin) (C.Incremental.spanner inc));
  check "valid after" true (C.Incremental.valid inc)

let test_churn_generator () =
  let g = Generators.gnp_connected (Rng.create 8) 50 0.1 in
  let d = Ugraph.Delta.create () in
  C.Incremental.churn ~rng:(Rng.create 42) ~replace:7 g d;
  check_int "deletes" 7 (Ugraph.Delta.deletes d);
  check_int "inserts" 7 (Ugraph.Delta.inserts d);
  Ugraph.Delta.iter_deletes
    (fun u v -> check "delete exists" true (Ugraph.mem_edge g u v))
    d;
  Ugraph.Delta.iter_inserts
    (fun u v -> check "insert absent" true (not (Ugraph.mem_edge g u v)))
    d;
  (* Deterministic in the rng seed. *)
  let d2 = Ugraph.Delta.create () in
  C.Incremental.churn ~rng:(Rng.create 42) ~replace:7 g d2;
  check "seeded reproducibility" true
    (Ugraph.equal (Ugraph.apply_delta g d) (Ugraph.apply_delta g d2));
  (* Applies cleanly. *)
  let g' = Ugraph.apply_delta g d in
  check_int "m preserved" (Ugraph.m g) (Ugraph.m g')

let () =
  Alcotest.run "incremental"
    [
      ( "checker",
        [
          Alcotest.test_case "fast == bfs" `Quick test_fast_checker;
          Alcotest.test_case "csr == bfs" `Quick test_csr_checker;
        ] );
      ( "active",
        [
          Alcotest.test_case "full set" `Quick test_active_full_set;
          Alcotest.test_case "subset" `Quick test_active_subset;
          Alcotest.test_case "guards" `Quick test_active_guards;
        ] );
      ( "churn",
        [
          Alcotest.test_case "traces valid" `Quick test_churn_validity;
          Alcotest.test_case "per-tick valid" `Quick
            test_churn_validity_per_tick;
          Alcotest.test_case "determinism" `Quick test_churn_determinism;
          Alcotest.test_case "faulted determinism" `Quick
            test_churn_faulted_determinism;
          Alcotest.test_case "reference replay" `Quick
            test_churn_reference_replay;
          Alcotest.test_case "rejected delta" `Quick test_churn_rejected_delta;
          Alcotest.test_case "generator" `Quick test_churn_generator;
        ] );
    ]
