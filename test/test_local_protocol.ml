(* Tests for the message-passing LOCAL implementation of the Section 4
   algorithm, including the differential equality with the
   round-structured engine, plus the augmentation wrapper and the
   spanner statistics. *)

open Grapho
module C = Spanner_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Two_spanner_local *)

let families =
  [
    ("K12", Generators.complete 12);
    ("caveman", Generators.caveman (Rng.create 1) 5 6 0.05);
    ("gnp40", Generators.gnp_connected (Rng.create 2) 40 0.25);
    ("ladder80", Generators.clique_ladder (Rng.create 3) 80);
    ("pa60", Generators.preferential_attachment (Rng.create 4) 60 8);
    ("bipartite", Generators.complete_bipartite 5 6);
    ("path7", Generators.path 7);
  ]

let test_local_valid () =
  List.iter
    (fun (name, g) ->
      let r = C.Two_spanner_local.run ~seed:5 g in
      check (name ^ " valid") true
        (C.Spanner_check.is_spanner g r.spanner ~k:2))
    families

let test_local_equals_engine () =
  (* The headline differential test: identical spanners for identical
     seeds, across families and seeds, including multi-iteration
     runs. *)
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let a = C.Two_spanner.run ~seed g in
          let b = C.Two_spanner_local.run ~seed g in
          check
            (Printf.sprintf "%s seed %d identical" name seed)
            true
            (Edge.Set.equal a.spanner b.spanner);
          check_int
            (Printf.sprintf "%s seed %d iterations" name seed)
            a.iterations b.iterations)
        [ 1; 2; 3 ])
    families

let test_local_round_accounting () =
  let g = Generators.clique_ladder (Rng.create 5) 60 in
  let r = C.Two_spanner_local.run ~seed:1 g in
  (* 12 rounds per completed iteration, plus the quiet-detection tail
     that never exceeds two extra iterations. *)
  check "round shape" true
    (r.metrics.rounds >= C.Two_spanner_local.rounds_per_iteration * r.iterations
    && r.metrics.rounds
       <= C.Two_spanner_local.rounds_per_iteration * (r.iterations + 3))

let test_local_degenerate () =
  let r = C.Two_spanner_local.run (Ugraph.empty 4) in
  check_int "no edges" 0 (Edge.Set.cardinal r.spanner);
  let g1 = Generators.path 2 in
  let r1 = C.Two_spanner_local.run g1 in
  check_int "single edge" 1 (Edge.Set.cardinal r1.spanner)

let test_local_runs_under_local_model_only () =
  (* Messages genuinely exceed O(log n): that is the point of LOCAL. *)
  let g = Generators.complete 20 in
  let r = C.Two_spanner_local.run ~seed:2 g in
  check "big messages happen" true (r.metrics.max_message_bits > 64)

let prop_local_equals_engine =
  QCheck.Test.make ~name:"local protocol = engine on random graphs" ~count:15
    QCheck.(pair (int_range 2 25) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Generators.gnp_connected (Rng.create seed) n 0.35 in
      let a = C.Two_spanner.run ~seed g in
      let b = C.Two_spanner_local.run ~seed g in
      Edge.Set.equal a.spanner b.spanner)

(* ------------------------------------------------------------------ *)
(* Augmentation *)

let test_augment_from_empty_is_plain () =
  let g = Generators.complete 12 in
  let r = C.Augmentation.run ~seed:3 g ~initial:Edge.Set.empty in
  check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2);
  check "added = spanner" true (Edge.Set.equal r.added r.spanner)

let test_augment_from_full_adds_nothing () =
  let g = Generators.gnp_connected (Rng.create 6) 30 0.2 in
  let r = C.Augmentation.run ~seed:3 g ~initial:(Ugraph.edge_set g) in
  check_int "nothing added" 0 (Edge.Set.cardinal r.added);
  check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2)

let test_augment_partial () =
  for seed = 0 to 4 do
    let g = Generators.gnp_connected (Rng.create (10 + seed)) 30 0.25 in
    (* Start from a random half of the edges. *)
    let rng = Rng.create seed in
    let initial =
      Edge.Set.filter (fun _ -> Rng.bool rng) (Ugraph.edge_set g)
    in
    let r = C.Augmentation.run ~seed g ~initial in
    check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2);
    check "contains initial" true (Edge.Set.subset initial r.spanner);
    check "added disjoint from initial" true
      (Edge.Set.is_empty (Edge.Set.inter r.added initial))
  done

let test_augment_rejects_foreign_edges () =
  let g = Generators.path 3 in
  check "raises" true
    (try
       ignore
         (C.Augmentation.run g ~initial:(Edge.Set.singleton (Edge.make 0 2)));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Spanner_stats *)

let test_stats_full_graph () =
  let g = Generators.complete 6 in
  let s = C.Spanner_stats.compute g (Ugraph.edge_set g) in
  check_int "max stretch" 1 s.max_stretch;
  Alcotest.(check (float 1e-9)) "mean" 1.0 s.mean_stretch;
  Alcotest.(check (float 1e-9)) "compression" 1.0 s.compression

let test_stats_star_spanner () =
  let g = Generators.complete 6 in
  let star =
    Edge.Set.of_list (List.init 5 (fun i -> Edge.make 0 (i + 1)))
  in
  let s = C.Spanner_stats.compute g star in
  check_int "max stretch 2" 2 s.max_stretch;
  check_int "edges" 5 s.edges;
  (* 5 direct edges at stretch 1, 10 at stretch 2 *)
  check "histogram" true (s.stretch_histogram = [ (1, 5); (2, 10) ])

let test_stats_detects_disconnection () =
  let g = Generators.path 3 in
  let s = C.Spanner_stats.compute g (Edge.Set.singleton (Edge.make 0 1)) in
  check_int "unreachable flagged" max_int s.max_stretch

let test_stats_directed () =
  let dg = Dgraph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let s =
    C.Spanner_stats.directed_compute dg
      (Edge.Directed.Set.of_list [ (0, 1); (1, 2) ])
  in
  check_int "max stretch" 2 s.max_stretch;
  check_int "edges" 2 s.edges

let test_congest_compilation_equal () =
  List.iter
    (fun (name, g) ->
      let a = C.Two_spanner.run ~seed:3 g in
      let c = C.Two_spanner_local.run_congest ~seed:3 g in
      check (name ^ " identical under CONGEST") true
        (Edge.Set.equal a.spanner c.spanner);
      check_int (name ^ " no violations") 0 c.metrics.congest_violations)
    [
      ("K10", Generators.complete 10);
      ("ladder60", Generators.clique_ladder (Rng.create 2) 60);
      ("gnp30", Generators.gnp_connected (Rng.create 3) 30 0.3);
    ]

let test_congest_overhead_is_delta () =
  (* Real rounds = chunks_per_round x virtual rounds: the O(Delta)
     overhead of Section 1.3. *)
  let g = Generators.complete 12 in
  let c = C.Two_spanner_local.run_congest ~seed:1 g in
  let chunks = (2 * Ugraph.max_degree g) + 4 in
  check "round multiple" true (c.metrics.rounds mod chunks = 0);
  check "bounded" true
    (c.metrics.rounds
    <= chunks * C.Two_spanner_local.rounds_per_iteration * (c.iterations + 3))

let test_weighted_protocol_equal () =
  List.iter
    (fun (name, g, zf, mw) ->
      List.iter
        (fun seed ->
          let w =
            Generators.random_weights_with_zeros (Rng.create (seed + 50)) g
              ~zero_fraction:zf ~max_weight:mw
          in
          let a = C.Weighted_two_spanner.run ~seed g w in
          let b = C.Two_spanner_local.run_weighted ~seed g w in
          check
            (Printf.sprintf "%s seed %d identical" name seed)
            true
            (Edge.Set.equal a.spanner b.spanner))
        [ 1; 2 ])
    [
      ("K12", Generators.complete 12, 0.0, 8);
      ("caveman", Generators.caveman (Rng.create 1) 4 6 0.05, 0.2, 5);
      ("gnp30", Generators.gnp_connected (Rng.create 4) 30 0.3, 0.3, 16);
      ("allzero", Generators.complete 8, 1.0, 3);
    ]

let prop_weighted_protocol_equal =
  QCheck.Test.make ~name:"weighted local protocol = weighted engine"
    ~count:10
    QCheck.(pair (int_range 2 20) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Generators.gnp_connected (Rng.create seed) n 0.35 in
      let w =
        Generators.random_weights_with_zeros (Rng.create (seed + 1)) g
          ~zero_fraction:0.25 ~max_weight:6
      in
      let a = C.Weighted_two_spanner.run ~seed g w in
      let b = C.Two_spanner_local.run_weighted ~seed g w in
      Edge.Set.equal a.spanner b.spanner)

let prop_congest_equals_engine =
  QCheck.Test.make ~name:"CONGEST compilation = engine" ~count:8
    QCheck.(pair (int_range 2 18) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Generators.gnp_connected (Rng.create seed) n 0.35 in
      let a = C.Two_spanner.run ~seed g in
      let c = C.Two_spanner_local.run_congest ~seed g in
      Edge.Set.equal a.spanner c.spanner
      && c.metrics.congest_violations = 0)

(* Golden pin of the oracle-heavy bootstrap: the LOCAL 2-spanner of a
   400-vertex clique ladder (the repo benchmark's bootstrap_ladder at
   seed 1). Any change to the densest-star oracle must leave the
   spanner, the paper's costs and the oracle's own work (calls and
   parametric probes) exactly as they are. *)
let test_ladder400_golden () =
  let g = Generators.clique_ladder (Rng.create 1) 400 in
  let calls0 = !Netflow.Densest.solver_calls in
  let probes0 = !Netflow.Densest.probes in
  let r = C.Two_spanner_local.run ~seed:1 g in
  let calls = !Netflow.Densest.solver_calls - calls0 in
  let probes = !Netflow.Densest.probes - probes0 in
  let buf = Buffer.create 16384 in
  Edge.Set.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      Buffer.add_string buf (Printf.sprintf "%d-%d\n" u v))
    r.spanner;
  let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  check_int "spanner size" 1516 (Edge.Set.cardinal r.spanner);
  check_int "rounds" 60 r.metrics.rounds;
  check_int "messages" 388509 r.metrics.messages;
  check_int "total_bits" 29384379 r.metrics.total_bits;
  Alcotest.(check string) "spanner digest"
    "52ba7b0b63c7b5268946e072cfeb0a97" digest;
  check_int "oracle calls" 928 calls;
  check_int "oracle probes" 11759 probes

let base_suites =
    [
      ( "two_spanner_local",
        [
          Alcotest.test_case "valid" `Quick test_local_valid;
          Alcotest.test_case "equals engine" `Quick test_local_equals_engine;
          Alcotest.test_case "round accounting" `Quick
            test_local_round_accounting;
          Alcotest.test_case "degenerate" `Quick test_local_degenerate;
          Alcotest.test_case "LOCAL-size messages" `Quick
            test_local_runs_under_local_model_only;
          QCheck_alcotest.to_alcotest prop_local_equals_engine;
          Alcotest.test_case "congest compilation" `Quick
            test_congest_compilation_equal;
          Alcotest.test_case "congest overhead" `Quick
            test_congest_overhead_is_delta;
          QCheck_alcotest.to_alcotest prop_congest_equals_engine;
          Alcotest.test_case "weighted protocol" `Quick
            test_weighted_protocol_equal;
          QCheck_alcotest.to_alcotest prop_weighted_protocol_equal;
          Alcotest.test_case "ladder400 golden" `Quick test_ladder400_golden;
        ] );
      ( "augmentation",
        [
          Alcotest.test_case "from empty" `Quick test_augment_from_empty_is_plain;
          Alcotest.test_case "from full" `Quick test_augment_from_full_adds_nothing;
          Alcotest.test_case "partial" `Quick test_augment_partial;
          Alcotest.test_case "foreign edges" `Quick
            test_augment_rejects_foreign_edges;
        ] );
      ( "stats",
        [
          Alcotest.test_case "full graph" `Quick test_stats_full_graph;
          Alcotest.test_case "star spanner" `Quick test_stats_star_spanner;
          Alcotest.test_case "disconnection" `Quick
            test_stats_detects_disconnection;
          Alcotest.test_case "directed" `Quick test_stats_directed;
        ] );
    ]

(* Appended suites: engine traces, fault tolerance, weighted (1+eps),
   and the MDS selection-rule comparison. These piggyback on this
   runner to keep the test executables few. *)

let test_trace_rows_consistent () =
  let g = Generators.clique_ladder (Rng.create 8) 100 in
  let rows = ref [] in
  let r = C.Two_spanner.run ~seed:4 ~trace:(fun row -> rows := row :: !rows) g in
  let rows = List.rev !rows in
  check_int "one row per iteration" r.iterations (List.length rows);
  (* Uncovered counts never increase between iterations; the first row
     sees all edges uncovered. *)
  (match rows with
  | first :: _ -> check_int "starts full" (Ugraph.m g) first.C.Two_spanner_engine.uncovered_before
  | [] -> Alcotest.fail "expected rows");
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        check "uncovered decreases" true
          (b.C.Two_spanner_engine.uncovered_before
          <= a.C.Two_spanner_engine.uncovered_before);
        monotone rest
    | _ -> ()
  in
  monotone rows;
  (* Max density steps down across iterations (Lemma 4.5 shape). *)
  (match (rows, List.rev rows) with
  | first :: _, last :: _ ->
      check "density falls" true
        (last.C.Two_spanner_engine.max_density
        <= first.C.Two_spanner_engine.max_density +. 1e-9)
  | _ -> ())

let test_ft_checker_known () =
  let g = Generators.complete 5 in
  let all = Ugraph.edge_set g in
  check "whole graph is f-FT for any f" true
    (C.Fault_tolerant.is_ft_2_spanner g ~f:3 all);
  (* One star of K5 is a 0-FT 2-spanner but not 1-FT: the hub is a
     single point of failure. *)
  let star = Edge.Set.of_list (List.init 4 (fun i -> Edge.make 0 (i + 1))) in
  check "star is 0-FT" true (C.Fault_tolerant.is_ft_2_spanner g ~f:0 star);
  check "star is not 1-FT" false (C.Fault_tolerant.is_ft_2_spanner g ~f:1 star)

let test_ft_middle_count () =
  let s =
    Edge.Set.of_list
      [ Edge.make 0 1; Edge.make 1 2; Edge.make 0 3; Edge.make 3 2 ]
  in
  check_int "two middles" 2 (C.Fault_tolerant.middle_count ~n:4 s (Edge.make 0 2))

(* Brute-force cross-check of the characterization against the ∀F
   definition. *)
let ft_by_definition g ~f s =
  let n = Ugraph.n g in
  let rec subsets k from acc =
    if k = 0 then [ acc ]
    else if from >= n then []
    else subsets (k - 1) (from + 1) (from :: acc) @ subsets k (from + 1) acc
  in
  let fault_sets =
    List.concat_map (fun k -> subsets k 0 []) (List.init (f + 1) (fun i -> i))
  in
  List.for_all
    (fun faults ->
      let dead = Array.make n false in
      List.iter (fun v -> dead.(v) <- true) faults;
      let surviving_edges set =
        Edge.Set.filter
          (fun e ->
            let u, w = Edge.endpoints e in
            (not dead.(u)) && not dead.(w))
          set
      in
      C.Spanner_check.is_spanner_of_targets ~n
        ~targets:(surviving_edges (Ugraph.edge_set g))
        (surviving_edges s) ~k:2)
    fault_sets

let test_ft_characterization_matches_definition () =
  for seed = 0 to 4 do
    let g = Generators.gnp_connected (Rng.create (80 + seed)) 8 0.5 in
    let r = C.Fault_tolerant.greedy g ~f:1 in
    check "characterization" true (C.Fault_tolerant.is_ft_2_spanner g ~f:1 r.spanner);
    check "by definition" true (ft_by_definition g ~f:1 r.spanner)
  done

let test_ft_greedy_valid_across_f () =
  let g = Generators.caveman (Rng.create 9) 4 7 0.05 in
  let prev = ref 0 in
  List.iter
    (fun f ->
      let r = C.Fault_tolerant.greedy g ~f in
      check "valid" true (C.Fault_tolerant.is_ft_2_spanner g ~f r.spanner);
      let size = Edge.Set.cardinal r.spanner in
      check "monotone in f" true (size >= !prev);
      prev := size)
    [ 0; 1; 2; 3 ]

let test_ft_f0_is_plain_spanner () =
  let g = Generators.gnp_connected (Rng.create 10) 25 0.3 in
  let r = C.Fault_tolerant.greedy g ~f:0 in
  check "plain 2-spanner" true (C.Spanner_check.is_spanner g r.spanner ~k:2)

let test_weighted_epsilon () =
  for seed = 0 to 2 do
    let g = Generators.gnp_connected (Rng.create (90 + seed)) 9 0.45 in
    let w = Generators.random_weights (Rng.create seed) g ~max_weight:4 in
    let r = C.Epsilon_spanner.run ~rng:(Rng.create seed) ~weights:w
        ~epsilon:0.25 ~k:2 g
    in
    check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2);
    let opt = Weights.cost w (C.Exact.min_weighted_2_spanner g w) in
    check "within (1+eps) of optimum" true (r.cost <= (1.25 *. opt) +. 1e-9)
  done

let test_mds_coin_variant () =
  let g = Generators.gnp_connected (Rng.create 11) 100 0.08 in
  let coin =
    C.Mds.run ~rng:(Rng.create 1) ~selection:(C.Mds.Coin 0.5) g
  in
  check "coin variant dominates" true
    (C.Mds.is_dominating_set g coin.dominating_set);
  check_int "coin congest ok" 0 coin.metrics.congest_violations

let prop_ft_greedy_valid =
  QCheck.Test.make ~name:"FT greedy always valid" ~count:12
    QCheck.(pair (int_range 0 2) (int_range 0 10_000))
    (fun (f, seed) ->
      let g = Generators.gnp_connected (Rng.create seed) 15 0.4 in
      let r = C.Fault_tolerant.greedy g ~f in
      C.Fault_tolerant.is_ft_2_spanner g ~f r.spanner)

let extra_suites =
    [
      ( "trace",
        [ Alcotest.test_case "rows" `Quick test_trace_rows_consistent ] );
      ( "fault_tolerant",
        [
          Alcotest.test_case "checker" `Quick test_ft_checker_known;
          Alcotest.test_case "middles" `Quick test_ft_middle_count;
          Alcotest.test_case "matches definition" `Quick
            test_ft_characterization_matches_definition;
          Alcotest.test_case "monotone in f" `Quick
            test_ft_greedy_valid_across_f;
          Alcotest.test_case "f=0 plain" `Quick test_ft_f0_is_plain_spanner;
          QCheck_alcotest.to_alcotest prop_ft_greedy_valid;
        ] );
      ( "weighted_epsilon",
        [ Alcotest.test_case "ratio" `Quick test_weighted_epsilon ] );
      ( "mds_coin",
        [ Alcotest.test_case "valid" `Quick test_mds_coin_variant ] );
    ]

let () = Alcotest.run "local_protocol" (base_suites @ extra_suites)
