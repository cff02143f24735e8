(* Tests for Dinic max-flow and Goldberg maximum-density subgraph. *)

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Maxflow *)

let test_single_edge () =
  let net = Netflow.Maxflow.create 2 in
  Netflow.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3.5;
  check_float "flow" 3.5 (Netflow.Maxflow.max_flow net ~s:0 ~t:1)

let test_series_bottleneck () =
  let net = Netflow.Maxflow.create 3 in
  Netflow.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:5.0;
  Netflow.Maxflow.add_edge net ~src:1 ~dst:2 ~cap:2.0;
  check_float "bottleneck" 2.0 (Netflow.Maxflow.max_flow net ~s:0 ~t:2)

let test_parallel_paths () =
  let net = Netflow.Maxflow.create 4 in
  Netflow.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3.0;
  Netflow.Maxflow.add_edge net ~src:1 ~dst:3 ~cap:3.0;
  Netflow.Maxflow.add_edge net ~src:0 ~dst:2 ~cap:4.0;
  Netflow.Maxflow.add_edge net ~src:2 ~dst:3 ~cap:1.0;
  check_float "sum of paths" 4.0 (Netflow.Maxflow.max_flow net ~s:0 ~t:3)

let test_classic_network () =
  (* CLRS figure: max flow 23. *)
  let net = Netflow.Maxflow.create 6 in
  let edges =
    [ (0, 1, 16.); (0, 2, 13.); (1, 2, 10.); (2, 1, 4.); (1, 3, 12.);
      (3, 2, 9.); (2, 4, 14.); (4, 3, 7.); (3, 5, 20.); (4, 5, 4.) ]
  in
  List.iter
    (fun (src, dst, cap) -> Netflow.Maxflow.add_edge net ~src ~dst ~cap)
    edges;
  check_float "CLRS" 23.0 (Netflow.Maxflow.max_flow net ~s:0 ~t:5)

let test_min_cut_side () =
  let net = Netflow.Maxflow.create 3 in
  Netflow.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:1.0;
  Netflow.Maxflow.add_edge net ~src:1 ~dst:2 ~cap:100.0;
  ignore (Netflow.Maxflow.max_flow net ~s:0 ~t:2);
  let side = Netflow.Maxflow.min_cut_side net ~s:0 in
  check "s side" true side.(0);
  check "cut after bottleneck" false side.(1);
  check "t side" false side.(2)

let test_disconnected_flow () =
  let net = Netflow.Maxflow.create 3 in
  Netflow.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:5.0;
  check_float "no path" 0.0 (Netflow.Maxflow.max_flow net ~s:0 ~t:2)

let test_negative_capacity_rejected () =
  let net = Netflow.Maxflow.create 2 in
  check "raises" true
    (try
       Netflow.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:(-1.0);
       false
     with Invalid_argument _ -> true)

(* A random network on [n] nodes: each ordered pair is an arc with
   probability [p], capacities in [0, 5). Returns the arcs in order. *)
let random_network rng ~n ~p =
  let arcs = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Grapho.Rng.float rng 1.0 < p then
        arcs := (u, v, Grapho.Rng.float rng 5.0) :: !arcs
    done
  done;
  List.rev !arcs

let build n arcs =
  let net = Netflow.Maxflow.create n in
  List.iter (fun (src, dst, cap) -> Netflow.Maxflow.add_edge net ~src ~dst ~cap) arcs;
  net

let solve net ~n =
  let flow = Netflow.Maxflow.max_flow net ~s:0 ~t:(n - 1) in
  (flow, Netflow.Maxflow.min_cut_side net ~s:0)

(* Solving, resetting and solving again -- with new capacities written
   by [set_cap] -- gives bit-for-bit the flow and cut of a network built
   afresh with those capacities. *)
let prop_reset_equals_fresh =
  QCheck.Test.make ~name:"reset + set_cap = freshly built network" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Grapho.Rng.create seed in
      let n = 2 + Grapho.Rng.int rng 14 in
      let arcs = random_network rng ~n ~p:0.35 in
      let reused = build n arcs in
      let first = solve reused ~n in
      Netflow.Maxflow.reset reused;
      let again = solve reused ~n in
      let arcs' =
        List.map
          (fun (u, v, c) ->
            if Grapho.Rng.int rng 2 = 0 then (u, v, Grapho.Rng.float rng 5.0)
            else (u, v, c))
          arcs
      in
      Netflow.Maxflow.reset reused;
      List.iteri
        (fun k (_, _, c) -> Netflow.Maxflow.set_cap reused k c)
        arcs';
      let rewritten = solve reused ~n in
      first = solve (build n arcs) ~n
      && again = first
      && rewritten = solve (build n arcs') ~n)

(* Max-flow/min-cut certificate: the capacity of the arcs leaving the
   returned source side equals the flow, with [s] inside, [t] outside. *)
let prop_cut_certifies_flow =
  QCheck.Test.make ~name:"cut capacity = flow value" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Grapho.Rng.create seed in
      let n = 2 + Grapho.Rng.int rng 20 in
      let arcs = random_network rng ~n ~p:(0.1 +. Grapho.Rng.float rng 0.4) in
      let flow, side = solve (build n arcs) ~n in
      let cut =
        List.fold_left
          (fun acc (u, v, c) -> if side.(u) && not side.(v) then acc +. c else acc)
          0.0 arcs
      in
      side.(0) && (not side.(n - 1))
      && Float.abs (cut -. flow) <= 1e-9 *. Float.max 1.0 flow)

let test_set_cap_rejects () =
  let net = build 3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check "negative" true (raises (fun () -> Netflow.Maxflow.set_cap net 0 (-1.0)));
  check "unknown edge" true (raises (fun () -> Netflow.Maxflow.set_cap net 2 1.0));
  check "add after solve" true
    (raises (fun () -> Netflow.Maxflow.add_edge net ~src:0 ~dst:2 ~cap:1.0))

(* ------------------------------------------------------------------ *)
(* Densest subgraph *)

let test_densest_triangle_plus_pendant () =
  (* Triangle 0-1-2 with pendant 3: both the triangle and the whole
     graph achieve the maximum density 1. *)
  let edges = [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  match Netflow.Densest.densest_subset ~n:4 ~edges () with
  | Some (subset, d) ->
      check "contains triangle" true
        (List.for_all (fun v -> List.mem v subset) [ 0; 1; 2 ]);
      check_float "density 1" 1.0 d
  | None -> Alcotest.fail "expected a subset"

let test_densest_empty () =
  check "no edges -> none" true
    (Netflow.Densest.densest_subset ~n:5 ~edges:[] () = None)

let test_densest_clique_inside_sparse () =
  (* K4 on 0..3 (density 1.5) dangling path 4-5-6. *)
  let edges =
    [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (3, 4); (4, 5); (5, 6) ]
  in
  match Netflow.Densest.densest_subset ~n:7 ~edges () with
  | Some (subset, d) ->
      Alcotest.(check (list int)) "K4" [ 0; 1; 2; 3 ] subset;
      check_float "density" 1.5 d
  | None -> Alcotest.fail "expected a subset"

let test_densest_with_weights () =
  (* One heavy node makes the pair (0,1) denser than the triangle. *)
  let edges = [ (0, 1); (1, 2); (0, 2) ] in
  let weights = [| 1.0; 1.0; 10.0 |] in
  match Netflow.Densest.densest_subset ~weights ~n:3 ~edges () with
  | Some (subset, d) ->
      Alcotest.(check (list int)) "skip heavy" [ 0; 1 ] subset;
      check_float "density" 0.5 d
  | None -> Alcotest.fail "expected a subset"

let test_densest_with_bonuses () =
  (* No edges, but node 2 has a bonus. *)
  let bonuses = [| 0.0; 0.0; 4.0 |] in
  match Netflow.Densest.densest_subset ~bonuses ~n:3 ~edges:[] () with
  | Some (subset, d) ->
      Alcotest.(check (list int)) "bonus node" [ 2 ] subset;
      check_float "density" 4.0 d
  | None -> Alcotest.fail "expected a subset"

let test_density_of () =
  let edges = [ (0, 1); (1, 2); (0, 2) ] in
  check_float "triangle" 1.0 (Netflow.Densest.density_of ~edges [ 0; 1; 2 ]);
  check_float "pair" 0.5 (Netflow.Densest.density_of ~edges [ 0; 1 ])

let random_instance seed =
  let rng = Grapho.Rng.create seed in
  let n = 2 + Grapho.Rng.int rng 8 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Grapho.Rng.float rng 1.0 < 0.45 then edges := (u, v) :: !edges
    done
  done;
  (n, !edges, rng)

let prop_flow_matches_brute_density =
  QCheck.Test.make ~name:"flow densest = brute force (unit weights)"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n, edges, _ = random_instance seed in
      match
        ( Netflow.Densest.densest_subset ~n ~edges (),
          Netflow.Densest.brute_force ~n ~edges () )
      with
      | None, None -> true
      | Some (_, d1), Some (_, d2) -> Float.abs (d1 -. d2) < 1e-9
      | _ -> false)

let prop_flow_matches_brute_weighted =
  QCheck.Test.make ~name:"flow densest = brute force (weights + bonuses)"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n, edges, rng = random_instance seed in
      let weights =
        Array.init n (fun _ -> 0.5 +. Grapho.Rng.float rng 3.0)
      in
      let bonuses =
        Array.init n (fun _ -> float_of_int (Grapho.Rng.int rng 3))
      in
      match
        ( Netflow.Densest.densest_subset ~weights ~bonuses ~n ~edges (),
          Netflow.Densest.brute_force ~weights ~bonuses ~n ~edges () )
      with
      | None, None -> true
      | Some (_, d1), Some (_, d2) -> Float.abs (d1 -. d2) < 1e-6
      | _ -> false)

let prop_returned_subset_has_returned_density =
  QCheck.Test.make ~name:"reported density is exact for reported subset"
    ~count:50
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n, edges, _ = random_instance seed in
      match Netflow.Densest.densest_subset ~n ~edges () with
      | None -> edges = []
      | Some (subset, d) ->
          Float.abs (Netflow.Densest.density_of ~edges subset -. d) < 1e-9)

(* The instances above have n <= 9, so [densest_subset] answers them
   all with its exhaustive small-n search. These reach the max-flow
   path: n in [13, 16] is above the exhaustive limit, and duplicate
   edges (a multigraph) force the flow path at any n. Above the limit
   the search always probes the flow network, which [~probed] checks;
   a multigraph whose first edge is already densest needs no probe. *)
let flow_instance seed =
  let rng = Grapho.Rng.create seed in
  let n = 13 + Grapho.Rng.int rng 4 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Grapho.Rng.float rng 1.0 < 0.35 then edges := (u, v) :: !edges
    done
  done;
  (n, !edges, rng)

let with_duplicates seed =
  let n, edges, rng = random_instance seed in
  let dups = List.filter (fun _ -> Grapho.Rng.int rng 3 = 0) edges in
  let extra = match edges with e :: _ -> [ e ] | [] -> [] in
  (n, edges @ extra @ dups, rng)

let agrees ?weights ?bonuses ?(probed = false) ~tol ~n ~edges () =
  let p0 = !Netflow.Densest.probes in
  let flow = Netflow.Densest.densest_subset ?weights ?bonuses ~n ~edges () in
  let probed_ok = (not probed) || !Netflow.Densest.probes > p0 in
  match (flow, Netflow.Densest.brute_force ?weights ?bonuses ~n ~edges ()) with
  | None, None -> true
  | Some (subset, d1), Some (_, d2) ->
      probed_ok
      && Float.abs (d1 -. d2) < tol
      && Netflow.Densest.density_of ?weights ?bonuses ~edges subset = d1
  | _ -> false

let prop_flow_path_unit =
  QCheck.Test.make ~name:"flow path (n in 13..16) = brute force, unit"
    ~count:10
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n, edges, _ = flow_instance seed in
      agrees ~probed:true ~tol:1e-9 ~n ~edges ())

let prop_flow_path_weighted =
  QCheck.Test.make
    ~name:"flow path (n in 13..16) = brute force, weights + bonuses"
    ~count:8
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n, edges, rng = flow_instance seed in
      let weights = Array.init n (fun _ -> 0.5 +. Grapho.Rng.float rng 3.0) in
      let bonuses =
        Array.init n (fun _ -> float_of_int (Grapho.Rng.int rng 3))
      in
      agrees ~weights ~bonuses ~probed:true ~tol:1e-6 ~n ~edges ())

let prop_flow_path_duplicates =
  QCheck.Test.make ~name:"duplicate edges take the flow path = brute force"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n, edges, rng = with_duplicates seed in
      let bonuses =
        Array.init n (fun _ -> float_of_int (Grapho.Rng.int rng 2))
      in
      agrees ~tol:1e-9 ~n ~edges () && agrees ~bonuses ~tol:1e-9 ~n ~edges ())

(* A triangle with a doubled edge: the exhaustive search cannot encode
   the multigraph, so the answer comes from the flow network. *)
let test_duplicate_edge_probes () =
  let edges = [ (0, 1); (1, 2); (0, 2); (0, 1); (2, 3) ] in
  let p0 = !Netflow.Densest.probes in
  (match Netflow.Densest.densest_subset ~n:4 ~edges () with
  | Some (subset, d) ->
      Alcotest.(check (list int)) "triangle" [ 0; 1; 2 ] subset;
      check_float "density 4/3" (4.0 /. 3.0) d
  | None -> Alcotest.fail "expected a subset");
  check "probed the flow network" true (!Netflow.Densest.probes > p0)

(* GC guard for the flow oracle: one call builds Goldberg's network
   once and only resets it between probes, so its minor-heap allocation
   is the network and the answer lists, not a network per probe. The
   instance (n = 40, m = 246) takes about a dozen probes. *)
let oracle_minor_words_ceiling = 40_000.0

let test_oracle_allocation () =
  let rng = Grapho.Rng.create 7 in
  let n = 40 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Grapho.Rng.float rng 1.0 < 0.3 then edges := (u, v) :: !edges
    done
  done;
  let edges = !edges in
  Alcotest.(check int) "m" 246 (List.length edges);
  let call () = ignore (Netflow.Densest.densest_subset ~n ~edges ()) in
  call ();
  let runs = 5 in
  let p0 = !Netflow.Densest.probes in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    call ()
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int runs in
  check "probes the flow network" true (!Netflow.Densest.probes > p0);
  Printf.printf "densest_subset: %.0f minor words/call\n" per_call;
  if per_call > oracle_minor_words_ceiling then
    Alcotest.failf "densest_subset allocates %.0f minor words/call (budget %.0f)"
      per_call oracle_minor_words_ceiling

let () =
  Alcotest.run "netflow"
    [
      ( "maxflow",
        [
          Alcotest.test_case "single edge" `Quick test_single_edge;
          Alcotest.test_case "series" `Quick test_series_bottleneck;
          Alcotest.test_case "parallel" `Quick test_parallel_paths;
          Alcotest.test_case "classic" `Quick test_classic_network;
          Alcotest.test_case "min cut side" `Quick test_min_cut_side;
          Alcotest.test_case "disconnected" `Quick test_disconnected_flow;
          Alcotest.test_case "negative rejected" `Quick
            test_negative_capacity_rejected;
          Alcotest.test_case "set_cap rejects" `Quick test_set_cap_rejects;
          QCheck_alcotest.to_alcotest prop_reset_equals_fresh;
          QCheck_alcotest.to_alcotest prop_cut_certifies_flow;
        ] );
      ( "densest",
        [
          Alcotest.test_case "triangle" `Quick
            test_densest_triangle_plus_pendant;
          Alcotest.test_case "empty" `Quick test_densest_empty;
          Alcotest.test_case "clique inside sparse" `Quick
            test_densest_clique_inside_sparse;
          Alcotest.test_case "weights" `Quick test_densest_with_weights;
          Alcotest.test_case "bonuses" `Quick test_densest_with_bonuses;
          Alcotest.test_case "density_of" `Quick test_density_of;
          QCheck_alcotest.to_alcotest prop_flow_matches_brute_density;
          QCheck_alcotest.to_alcotest prop_flow_matches_brute_weighted;
          QCheck_alcotest.to_alcotest prop_returned_subset_has_returned_density;
          Alcotest.test_case "duplicate edge probes" `Quick
            test_duplicate_edge_probes;
          QCheck_alcotest.to_alcotest prop_flow_path_unit;
          Alcotest.test_case "allocation budget" `Quick test_oracle_allocation;
          QCheck_alcotest.to_alcotest prop_flow_path_weighted;
          QCheck_alcotest.to_alcotest prop_flow_path_duplicates;
        ] );
    ]
