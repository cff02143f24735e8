(* CSR equivalence suite: the Bigarray CSR adjacency must behave
   exactly like the reference adjacency-list model across every
   constructor — same neighbors, degrees, membership, iteration
   order — plus the degenerate shapes, the seeded gnp/pa pins for the
   skip-sampling generators, and the builder's GC guard (streaming a
   10^5-vertex graph must not allocate per edge). *)

open Grapho

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Reference model: plain sorted, deduplicated adjacency lists built
   the naive way. *)
module Ref_model = struct
  type t = { rn : int; adj : int list array }

  let of_edges ~n edges =
    let adj = Array.make (max n 1) [] in
    List.iter
      (fun (u, v) ->
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v))
      edges;
    {
      rn = n;
      adj = Array.map (fun l -> List.sort_uniq compare l) adj;
    }

  let degree t u = List.length t.adj.(u)
  let neighbors t u = Array.of_list t.adj.(u)
  let mem_edge t u v = u <> v && List.mem v t.adj.(u)
  let m t =
    Array.fold_left (fun acc l -> acc + List.length l) 0
      (Array.sub t.adj 0 t.rn)
    / 2
end

(* Every constructor must produce the same graph. *)
let constructors ~n edges =
  let via_builder () =
    let b = Ugraph.Builder.create ~n () in
    List.iter (fun (u, v) -> Ugraph.Builder.add_edge b u v) edges;
    Ugraph.Builder.finish b
  in
  [
    ("of_edges", fun () -> Ugraph.of_edges ~n edges);
    ( "of_edge_set",
      fun () ->
        Ugraph.of_edge_set ~n
          (List.fold_left
             (fun s (u, v) -> Edge.Set.add (Edge.make u v) s)
             Edge.Set.empty edges) );
    ( "of_edge_iter",
      fun () ->
        Ugraph.of_edge_iter ~n (fun emit ->
            List.iter (fun (u, v) -> emit u v) edges) );
    ("builder", via_builder);
  ]

let assert_matches_reference name g r =
  let n = Ref_model.(r.rn) in
  check_int (name ^ ": n") n (Ugraph.n g);
  check_int (name ^ ": m") (Ref_model.m r) (Ugraph.m g);
  for u = 0 to n - 1 do
    check_int
      (Printf.sprintf "%s: degree %d" name u)
      (Ref_model.degree r u) (Ugraph.degree g u);
    Alcotest.(check (array int))
      (Printf.sprintf "%s: neighbors %d" name u)
      (Ref_model.neighbors r u) (Ugraph.neighbors g u);
    (* iter/fold must visit in the same ascending order as neighbors *)
    let via_iter = ref [] in
    Ugraph.iter_neighbors (fun v -> via_iter := v :: !via_iter) g u;
    Alcotest.(check (list int))
      (Printf.sprintf "%s: iter order %d" name u)
      (Array.to_list (Ref_model.neighbors r u))
      (List.rev !via_iter);
    let via_fold =
      Ugraph.fold_neighbors (fun acc v -> v :: acc) g u []
    in
    Alcotest.(check (list int))
      (Printf.sprintf "%s: fold order %d" name u)
      (Array.to_list (Ref_model.neighbors r u))
      (List.rev via_fold);
    for v = 0 to n - 1 do
      check
        (Printf.sprintf "%s: mem %d %d" name u v)
        (Ref_model.mem_edge r u v) (Ugraph.mem_edge g u v)
    done
  done;
  (* edges stream ascending-lexicographic with u < v *)
  let last = ref (-1, -1) in
  Ugraph.iter_edges_uv
    (fun u v ->
      check (name ^ ": u < v") true (u < v);
      check (name ^ ": ascending") true ((u, v) > !last);
      check (name ^ ": present") true (Ref_model.mem_edge r u v);
      last := (u, v))
    g;
  let count = Ugraph.fold_edges_uv (fun acc _ _ -> acc + 1) g 0 in
  check_int (name ^ ": edge stream length") (Ugraph.m g) count

let exercise ~name ~n edges =
  let r = Ref_model.of_edges ~n edges in
  let graphs =
    List.map (fun (c, f) -> (name ^ "/" ^ c, f ())) (constructors ~n edges)
  in
  List.iter (fun (cname, g) -> assert_matches_reference cname g r) graphs;
  (* all construction paths agree structurally *)
  (match graphs with
  | (_, first) :: rest ->
      List.iter
        (fun (cname, g) -> check (cname ^ ": equal") true (Ugraph.equal first g))
        rest
  | [] -> ());
  (* round-trip through induced_by_edges is the identity *)
  let _, g0 = List.hd graphs in
  check (name ^ ": induced id") true
    (Ugraph.equal g0 (Ugraph.induced_by_edges g0 (Ugraph.edge_set g0)))

let test_random_graphs () =
  let rng = Rng.create 0xC5A in
  for case = 0 to 19 do
    let n = 1 + Rng.int rng 24 in
    let target = Rng.int rng (1 + (n * (n - 1) / 2)) in
    let edges = ref [] in
    let k = ref 0 in
    while !k < target do
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v then begin
        edges := (u, v) :: !edges;
        (* duplicates in both orientations stress the dedup *)
        if Rng.bool rng then edges := (v, u) :: !edges;
        incr k
      end
    done;
    exercise ~name:(Printf.sprintf "random%d" case) ~n !edges
  done

let test_edge_cases () =
  exercise ~name:"empty0" ~n:0 [];
  exercise ~name:"empty5" ~n:5 [];
  (* isolated vertices around a small component *)
  exercise ~name:"isolated" ~n:9 [ (2, 5); (5, 7); (2, 7) ];
  exercise ~name:"star" ~n:8 (List.init 7 (fun i -> (0, i + 1)));
  let complete_edges n =
    List.concat
      (List.init n (fun u -> List.init (n - u - 1) (fun i -> (u, u + i + 1))))
  in
  exercise ~name:"complete6" ~n:6 (complete_edges 6);
  check_int "empty n" 4 (Ugraph.n (Ugraph.empty 4));
  check_int "empty m" 0 (Ugraph.m (Ugraph.empty 4));
  check_int "resident empty0" 8 (Ugraph.resident_bytes (Ugraph.empty 0))

let test_validation () =
  let b = Ugraph.Builder.create ~n:3 () in
  check "range rejected" true
    (try
       Ugraph.Builder.add_edge b 0 3;
       false
     with Invalid_argument msg -> msg = "Ugraph: vertex 3 out of range [0,3)");
  check "self-loop rejected" true
    (try
       Ugraph.Builder.add_edge b 1 1;
       false
     with Invalid_argument msg -> msg = "Ugraph: self-loop at vertex 1");
  Ugraph.Builder.add_edge b 0 1;
  let g = Ugraph.Builder.finish b in
  check_int "one edge" 1 (Ugraph.m g);
  check "finished builder rejects" true
    (try
       Ugraph.Builder.add_edge b 1 2;
       false
     with Invalid_argument _ -> true)

let test_resident_bytes () =
  let g = Generators.complete 10 in
  (* 8 * (n + 1 + 2m) = 8 * (11 + 90) *)
  check_int "resident K10" (8 * 101) (Ugraph.resident_bytes g);
  check "dgraph resident positive" true
    (Dgraph.resident_bytes (Generators.bidirect g) > 0)

(* Seeded-equality pins for the skip-sampling generators: these
   fingerprints re-pin the bench gnp anchors after the switch from
   trial-per-pair sampling (satellite of PR 6), and pin that
   preferential attachment still samples the exact historical graphs
   (its Rng consumption was preserved through the pool rewrite). *)
let fingerprint g =
  Ugraph.fold_edges_uv (fun h u v -> (h * 1_000_003) + (u * 131) + v) g 0x9E37

let test_generator_pins () =
  let cases =
    [
      ("gnp_dense_100", Generators.gnp (Rng.create 2) 100 0.35,
       1743, 2235697293490807875);
      ("gnp_sparse_200", Generators.gnp (Rng.create 3) 200 0.05,
       970, -4291607970901585376);
      ("gnp_conn_50", Generators.gnp_connected (Rng.create 7) 50 0.1,
       156, 1492862353871756890);
      ("pa_200_10", Generators.preferential_attachment (Rng.create 4) 200 10,
       1900, 1272690548618341309);
    ]
  in
  List.iter
    (fun (name, g, m, fp) ->
      check_int (name ^ ": m") m (Ugraph.m g);
      check_int (name ^ ": fingerprint") fp (fingerprint g))
    cases;
  (* gnp degenerate probabilities consume no randomness *)
  check_int "p=0 empty" 0 (Ugraph.m (Generators.gnp (Rng.create 1) 30 0.0));
  check_int "p=1 complete" 435 (Ugraph.m (Generators.gnp (Rng.create 1) 30 1.0))

(* GC guard: streaming a 10^5-vertex graph through the builder must
   not allocate per edge on the OCaml heap — the endpoint buffers and
   the CSR itself live in Bigarrays. The ceiling is far below the
   ~6e5 words that even one boxed word per edge would cost, and far
   above the O(log m) buffer-doubling overhead. *)
let gc_guard_minor_words_ceiling = 50_000.0

let test_gc_guard () =
  let n = 100_000 in
  let before = Gc.minor_words () in
  let g =
    Ugraph.of_edge_iter ~expected_edges:(2 * n) ~n (fun emit ->
        for i = 0 to n - 2 do
          emit i (i + 1)
        done;
        for i = 0 to n - 1 do
          let j = (i + 97) mod n in
          if abs (i - j) > 1 then emit i j
        done)
  in
  let spent = Gc.minor_words () -. before in
  check_int "csr n" n (Ugraph.n g);
  check "csr built" true (Ugraph.m g > n);
  check
    (Printf.sprintf "minor words %.0f under ceiling %.0f" spent
       gc_guard_minor_words_ceiling)
    true
    (spent < gc_guard_minor_words_ceiling)

(* ------------------------------------------------------------------ *)
(* Batched deltas: [apply_delta]'s row splice must agree with a
   from-scratch build of the edited edge list, including when one
   delta's workspaces are reused across applications. *)

let edges_of g = List.map Edge.endpoints (Ugraph.edges g)

(* Deterministic delta for a seeded graph: delete every [stride]-th
   edge, insert absent chords (u, u+gap). *)
let mk_delta ?(stride = 7) ?(ins = 15) g =
  let d = Ugraph.Delta.create () in
  let deleted = ref [] in
  let i = ref 0 in
  Ugraph.iter_edges_uv
    (fun u v ->
      if !i mod stride = 0 then begin
        Ugraph.Delta.add_delete d u v;
        deleted := (u, v) :: !deleted
      end;
      incr i)
    g;
  let n = Ugraph.n g in
  let inserted = ref [] in
  let gap = ref 2 in
  while List.length !inserted < ins && !gap < n do
    let u = 3 * List.length !inserted mod (n - !gap) in
    let v = u + !gap in
    if not (Ugraph.mem_edge g u v)
       && not (List.mem (u, v) !inserted)
    then begin
      Ugraph.Delta.add_insert d u v;
      inserted := (u, v) :: !inserted
    end
    else incr gap
  done;
  (d, !deleted, !inserted)

let scratch_apply g deleted inserted =
  let keep =
    List.filter (fun (u, v) -> not (List.mem (u, v) deleted)) (edges_of g)
  in
  Ugraph.of_edges ~n:(Ugraph.n g) (keep @ inserted)

let test_delta_equivalence () =
  let cases =
    [
      ("gnp80", Generators.gnp_connected (Rng.create 21) 80 0.08);
      ("pa100", Generators.preferential_attachment (Rng.create 22) 100 6);
      ("grid", Generators.grid 9 11);
      ("caveman", Generators.caveman (Rng.create 23) 6 7 0.1);
    ]
  in
  List.iter
    (fun (name, g) ->
      let d, deleted, inserted = mk_delta g in
      let expected = scratch_apply g deleted inserted in
      let fresh = Ugraph.apply_delta g d in
      check (name ^ ": fresh delta") true (Ugraph.equal expected fresh);
      (* The same delta again: its key workspaces now hold the first
         application's directed keys and must be rebuilt, not read. *)
      let reused = Ugraph.apply_delta g d in
      check (name ^ ": reused delta") true (Ugraph.equal expected reused);
      (* The same delta refilled, as a churn tick would: apply the
         reverse edit to come back to g. *)
      Ugraph.Delta.reset d;
      List.iter (fun (u, v) -> Ugraph.Delta.add_insert d u v) deleted;
      List.iter (fun (u, v) -> Ugraph.Delta.add_delete d u v) inserted;
      let g2 = Ugraph.apply_delta fresh d in
      check (name ^ ": roundtrip") true (Ugraph.equal g g2))
    cases;
  (* Fingerprint pin: the edited graph, not just self-consistency. *)
  let g = Generators.gnp (Rng.create 2) 100 0.35 in
  let d, deleted, inserted = mk_delta ~stride:5 ~ins:20 g in
  let g' = Ugraph.apply_delta g d in
  check_int "pin: m" (Ugraph.m g - List.length deleted + List.length inserted)
    (Ugraph.m g');
  check_int "pin: fingerprint" 902360631607473347 (fingerprint g')

let test_delta_edge_cases () =
  let g = Generators.grid 5 5 in
  (* Empty delta is the identity (and [equal] is structural). *)
  let empty = Ugraph.Delta.create () in
  check "empty delta" true (Ugraph.equal g (Ugraph.apply_delta g empty));
  (* Delete every edge. *)
  let all = Ugraph.Delta.create () in
  Ugraph.iter_edges_uv (fun u v -> Ugraph.Delta.add_delete all u v) g;
  let bare = Ugraph.apply_delta g all in
  check_int "delete-all m" 0 (Ugraph.m bare);
  check_int "delete-all n" (Ugraph.n g) (Ugraph.n bare);
  (* Rejections: inserting a present edge, deleting an absent one,
     the same edge on both sides, the same edge twice on one side,
     out-of-range endpoints. Each must raise and leave no partial
     state ([g] is immutable anyway; assert after each one that it
     still equals a copy). *)
  let copy = Ugraph.of_edges ~n:(Ugraph.n g) (edges_of g) in
  let raises f =
    (match f () with
    | (_ : Ugraph.t) -> false
    | exception Invalid_argument _ -> true)
    && Ugraph.equal g copy
  in
  let with_delta adds = fun () ->
    let d = Ugraph.Delta.create () in
    adds d;
    Ugraph.apply_delta g d
  in
  check "insert present" true
    (raises (with_delta (fun d -> Ugraph.Delta.add_insert d 0 1)));
  check "delete absent" true
    (raises (with_delta (fun d -> Ugraph.Delta.add_delete d 0 24)));
  check "both sides" true
    (raises
       (with_delta (fun d ->
            Ugraph.Delta.add_delete d 0 1;
            Ugraph.Delta.add_insert d 1 0)));
  check "duplicate insert" true
    (raises
       (with_delta (fun d ->
            Ugraph.Delta.add_insert d 0 7;
            Ugraph.Delta.add_insert d 7 0)));
  check "duplicate delete" true
    (raises
       (with_delta (fun d ->
            Ugraph.Delta.add_delete d 0 1;
            Ugraph.Delta.add_delete d 1 0)));
  check "out of range" true
    (raises (with_delta (fun d -> Ugraph.Delta.add_insert d 0 99)));
  (match Ugraph.Delta.add_insert (Ugraph.Delta.create ()) 3 3 with
  | () -> Alcotest.fail "self-loop accepted"
  | exception Invalid_argument _ -> ());
  check "graph untouched" true (Ugraph.equal g (Generators.grid 5 5));
  (* Delta reset empties both sides but keeps accepting edges. *)
  let d = Ugraph.Delta.create () in
  Ugraph.Delta.add_delete d 0 1;
  Ugraph.Delta.add_insert d 0 24;
  Ugraph.Delta.reset d;
  check_int "reset deletes" 0 (Ugraph.Delta.deletes d);
  check_int "reset inserts" 0 (Ugraph.Delta.inserts d);
  check "reset then identity" true (Ugraph.equal g (Ugraph.apply_delta g d))

(* Splice corner cases, each against a from-scratch build. *)
let splice_matches name g dels ins =
  let d = Ugraph.Delta.create () in
  List.iter (fun (u, v) -> Ugraph.Delta.add_delete d u v) dels;
  List.iter (fun (u, v) -> Ugraph.Delta.add_insert d u v) ins;
  let canon (u, v) = (min u v, max u v) in
  let expected = scratch_apply g (List.map canon dels) ins in
  check name true (Ugraph.equal expected (Ugraph.apply_delta g d))

let test_splice_edge_cases () =
  let g = Generators.gnp_connected (Rng.create 41) 30 0.15 in
  let n = Ugraph.n g in
  let row u =
    List.map (fun v -> (u, v)) (Array.to_list (Ugraph.neighbors g u))
  in
  splice_matches "delete a whole row" g (row 7) [];
  splice_matches "delete rows 0 and n-1" g (row 0 @ row (n - 1)) [];
  let absent u =
    List.filter
      (fun v -> v <> u && not (Ugraph.mem_edge g u v))
      (List.init n Fun.id)
  in
  splice_matches "changes at 0 and n-1" g
    [ List.hd (row 0); List.hd (row (n - 1)) ]
    (if Ugraph.mem_edge g 0 (n - 1) then [ (0, List.hd (List.rev (absent 0))) ]
     else [ (0, n - 1) ]);
  (* Vertex 9 is isolated: its row starts empty. *)
  let holed =
    Ugraph.of_edges ~n:12
      (List.filter
         (fun (u, v) -> u <> 9 && v <> 9)
         (edges_of (Generators.grid 3 4)))
  in
  check_int "isolated row" 0 (Ugraph.degree holed 9);
  splice_matches "insert into an empty row" holed []
    [ (0, 9); (9, 11); (5, 9) ];
  splice_matches "empty a row and refill it" g (row 4)
    (List.map (fun v -> (min 4 v, max 4 v)) (absent 4));
  (* Every row loses both cycle edges and gains both chords. *)
  let c = Generators.cycle 20 in
  splice_matches "every row touched" c (edges_of c)
    (List.init 20 (fun i -> (min i ((i + 2) mod 20), max i ((i + 2) mod 20))));
  splice_matches "empty delta" g [] [];
  splice_matches "empty delta, no vertices" (Ugraph.empty 0) [] [];
  splice_matches "empty delta, no edges" (Ugraph.empty 5) [] []

(* Seeded random differential: chains of random deltas, each checked
   against [Ugraph.of_edges] of the edited edge list. *)
let test_splice_differential () =
  let rng = Rng.create 43 in
  for trial = 1 to 60 do
    let n = 2 + Rng.int rng 30 in
    let g = ref (Generators.gnp rng n (Rng.float rng 0.5)) in
    for step = 1 to 4 do
      let dels =
        List.filter (fun _ -> Rng.int rng 4 = 0) (edges_of !g)
      in
      let ins = ref [] in
      for _ = 1 to Rng.int rng (n + 1) do
        let u = Rng.int rng n and v = Rng.int rng n in
        let e = (min u v, max u v) in
        if u <> v && (not (Ugraph.mem_edge !g u v)) && not (List.mem e !ins)
        then ins := e :: !ins
      done;
      let d = Ugraph.Delta.create () in
      List.iter (fun (u, v) -> Ugraph.Delta.add_delete d v u) dels;
      List.iter (fun (u, v) -> Ugraph.Delta.add_insert d u v) !ins;
      let expected = scratch_apply !g dels !ins in
      let got = Ugraph.apply_delta !g d in
      check
        (Printf.sprintf "trial %d step %d" trial step)
        true (Ugraph.equal expected got);
      g := got
    done
  done

let test_slot_endpoints () =
  let g = Generators.gnp (Rng.create 31) 70 0.12 in
  let m2 = 2 * Ugraph.m g in
  for i = 0 to m2 - 1 do
    let u, v = Ugraph.slot_endpoints g i in
    check_int (Printf.sprintf "slot %d roundtrip" i) i (Ugraph.edge_slot g u v)
  done;
  (match Ugraph.slot_endpoints g m2 with
  | _ -> Alcotest.fail "slot out of range accepted"
  | exception Invalid_argument _ -> ())

let test_common_neighbors () =
  let g = Generators.gnp (Rng.create 32) 60 0.2 in
  let naive u v =
    List.filter (fun w -> Ugraph.mem_edge g v w)
      (Array.to_list (Ugraph.neighbors g u))
  in
  for u = 0 to 19 do
    for v = u + 1 to 20 do
      let expect = naive u v in
      let got = ref [] in
      Ugraph.iter_common_neighbors (fun w -> got := w :: !got) g u v;
      check (Printf.sprintf "common %d %d" u v) true
        (List.rev !got = expect);
      check_int
        (Printf.sprintf "first common %d %d" u v)
        (match expect with [] -> -1 | w :: _ -> w)
        (Ugraph.common_neighbor g u v)
    done
  done

(* GC guard for the churn path: 100 delta ticks over a 10^5-edge
   graph through one reused delta must stay allocation-flat — off-heap
   buffers reach steady-state capacity and the per-tick minor-heap
   cost is O(1) bookkeeping, not O(m) or even O(|delta|) boxing.
   Per-edge boxing would cost ~10^7 words over the loop; the ceiling
   is three orders of magnitude below that. *)
let test_churn_gc_guard () =
  let rows = 200 and cols = 250 in
  let g0 = Generators.grid rows cols in
  check "grid ~1e5 edges" true (Ugraph.m g0 > 99_000);
  let d = Ugraph.Delta.create ~expected:64 () in
  let g = ref g0 in
  (* Warm-up tick so every buffer reaches capacity before measuring. *)
  let batch tick add =
    (* 50 chords (i, i + 2*cols): never grid edges, distinct per
       batch index. *)
    let base = tick / 2 * 50 in
    for j = base to base + 49 do
      add d j (j + (2 * cols))
    done
  in
  Ugraph.Delta.reset d;
  batch 0 Ugraph.Delta.add_insert;
  g := Ugraph.apply_delta !g d;
  Ugraph.Delta.reset d;
  batch 1 Ugraph.Delta.add_delete;
  g := Ugraph.apply_delta !g d;
  let before = Gc.minor_words () in
  for tick = 0 to 99 do
    Ugraph.Delta.reset d;
    if tick mod 2 = 0 then batch tick Ugraph.Delta.add_insert
    else batch tick Ugraph.Delta.add_delete;
    g := Ugraph.apply_delta !g d
  done;
  let spent = Gc.minor_words () -. before in
  check "churn loop back to start" true (Ugraph.equal g0 !g);
  check
    (Printf.sprintf "churn minor words %.0f under ceiling" spent)
    true (spent < 50_000.0)

let () =
  Alcotest.run "csr"
    [
      ( "equivalence",
        [
          Alcotest.test_case "random graphs x constructors" `Quick
            test_random_graphs;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "resident bytes" `Quick test_resident_bytes;
        ] );
      ( "generators",
        [ Alcotest.test_case "seeded pins" `Quick test_generator_pins ] );
      ( "delta",
        [
          Alcotest.test_case "scratch equivalence" `Quick
            test_delta_equivalence;
          Alcotest.test_case "edge cases" `Quick test_delta_edge_cases;
          Alcotest.test_case "splice edge cases" `Quick
            test_splice_edge_cases;
          Alcotest.test_case "splice random differential" `Quick
            test_splice_differential;
          Alcotest.test_case "slot endpoints" `Quick test_slot_endpoints;
          Alcotest.test_case "common neighbors" `Quick test_common_neighbors;
        ] );
      ( "gc",
        [
          Alcotest.test_case "builder minor words" `Quick test_gc_guard;
          Alcotest.test_case "churn loop minor words" `Quick
            test_churn_gc_guard;
        ] );
    ]
