open Grapho

(* Incremental 2-spanner repair under edge churn.

   Correctness rests on a locality lemma for stretch-2 certificates.
   Write g for the pre-tick graph, g' for the post-tick graph, S for
   the maintained spanner of g and S' for its surviving restriction
   to g'. A g'-edge (x, y) is covered by S' iff (x, y) ∈ S' or the
   two endpoints share an S'-neighbor. Which g'-edges can have lost
   their certificate relative to S?

   - An edge covered by membership loses it only by being deleted —
     then it is no longer a g'-edge and needs nothing.
   - An edge (x, y) covered through a midpoint w loses the witness
     only if a spanner edge (x, w) or (w, y) left S. Spanner edges
     leave S only by being deleted from the graph (S' is the
     mem_edge restriction), so the broken edge is incident to a
     deleted edge's endpoint.
   - An inserted edge never had a certificate; its endpoints are
     update endpoints by definition.

   So every possibly-broken g'-edge is incident to a "seed" — an
   endpoint of some deleted or inserted edge — and a sweep of the
   g'-edges incident to seeds, probing each against S' (read off S's
   CSR by [covered]), finds exactly the uncovered edges. The dirty ball D is then the broken
   edges' endpoints plus all their common g'-neighbors (the 2-path
   midpoints a repair could use); re-running the protocol on g'[D]
   yields a 2-spanner R of g'[D], and since every broken edge has
   both endpoints in D it is an edge of g'[D], hence covered by R.
   S'' = S' ∪ R therefore covers every g'-edge: unbroken ones keep
   their S' certificate (coverage is monotone in the edge set),
   broken ones get one from R.

   S lives as a CSR. Since S ⊆ g, S' = S minus the deleted edges, so a
   tick's whole change to it is one diff — the deleted S-edges plus
   the R-edges outside S — spliced into the CSR once and applied to
   the set view edge by edge. *)

type tick_stats = {
  tick : int;
  deleted : int;
  inserted : int;
  seeds : int;
  candidates : int;
  broken : int;
  dirty : int;
  repair_rounds : int;
  repair_iterations : int;
  spanner_size : int;
}

type t = {
  seed : int;
  mutable graph : Ugraph.t;
  mutable scsr : Ugraph.t;  (* the spanner as its own CSR *)
  mutable spanner : Edge.Set.t;  (* the same edges, as a set *)
  mutable tick : int;
  sdelta : Ugraph.Delta.t;  (* this tick's spanner diff *)
  mark : Bytes.t;  (* bit 0: seed this tick, bit 1: in the dirty ball *)
  seed_buf : Bigcsr.buf;
  dirty_buf : Bigcsr.buf;
}

let create ?(seed = 0x2D5F1) ~spanner g =
  {
    seed;
    graph = g;
    scsr = Spanner_check.spanner_csr ~n:(Ugraph.n g) spanner;
    spanner;
    tick = 0;
    sdelta = Ugraph.Delta.create ();
    mark = Bytes.make (Ugraph.n g) '\000';
    seed_buf = Bigcsr.buf_create 64;
    dirty_buf = Bigcsr.buf_create 64;
  }

let bootstrap ?(seed = 0x2D5F1) ?sched ?par ?trace g =
  let r = Two_spanner_local.run ~seed ?sched ?par ?trace g in
  (create ~seed ~spanner:r.spanner g, r)

let graph t = t.graph
let spanner t = t.spanner
let spanner_csr t = t.scsr
let tick t = t.tick
let valid t = Spanner_check.is_2_spanner_csr t.graph t.scsr

(* Repair seeds drift per tick so consecutive dirty-ball runs do not
   reuse vote streams; same SplitMix-style decorrelation as
   {!Randomness.derived}. *)
let tick_seed t tick = t.seed lxor (tick * 0x85EBCA77) lxor 0x165667B1

let buf_get (b : Bigcsr.buf) i = Bigarray.Array1.get b.data i

exception Witness

(* Stretch-2 certificate of the g'-edge (u, v) against the surviving
   spanner S' = S ∩ g', read off S's own CSR: (u, v) itself is never a
   deleted edge (a delta may not delete and insert one edge), so S
   membership is S' membership; a midpoint w counts only if both its
   S-edges survived into g'. *)
let covered ~scsr g' u v =
  Ugraph.mem_edge scsr u v
  ||
  match
    Ugraph.iter_common_neighbors
      (fun w ->
        if Ugraph.mem_edge g' u w && Ugraph.mem_edge g' w v then
          raise_notrace Witness)
      scsr u v
  with
  | () -> false
  | exception Witness -> true

let apply ?sched ?par ?adversary ?retry ?trace t d =
  let deleted = Ugraph.Delta.deletes d
  and inserted = Ugraph.Delta.inserts d in
  (* A rejected delta raises here, before any state mutates. *)
  let g' = Ugraph.apply_delta t.graph d in
  let scsr = t.scsr and sd = t.sdelta in
  (* The spanner diff starts as the deleted edges that were spanner
     edges; S minus them is S ∩ g'. *)
  Ugraph.Delta.reset sd;
  Ugraph.Delta.iter_deletes
    (fun u v ->
      if Ugraph.mem_edge scsr u v then Ugraph.Delta.add_delete sd u v)
    d;
  let mark = t.mark in
  let is_seed v = Char.code (Bytes.unsafe_get mark v) land 1 <> 0 in
  let set_seed v =
    let c = Char.code (Bytes.unsafe_get mark v) in
    if c land 1 = 0 then begin
      Bytes.unsafe_set mark v (Char.unsafe_chr (c lor 1));
      Bigcsr.buf_push t.seed_buf v
    end
  in
  let set_dirty v =
    let c = Char.code (Bytes.unsafe_get mark v) in
    if c land 2 = 0 then begin
      Bytes.unsafe_set mark v (Char.unsafe_chr (c lor 2));
      Bigcsr.buf_push t.dirty_buf v
    end
  in
  Ugraph.Delta.iter_deletes (fun u v -> set_seed u; set_seed v) d;
  Ugraph.Delta.iter_inserts (fun u v -> set_seed u; set_seed v) d;
  let seeds = t.seed_buf.len in
  (* Candidate sweep: every g'-edge incident to a seed, each probed
     once (a seed-seed edge is charged to its larger endpoint). *)
  let candidates = ref 0 and broken = ref 0 in
  for i = 0 to seeds - 1 do
    let u = buf_get t.seed_buf i in
    Ugraph.iter_neighbors
      (fun v ->
        if not (is_seed v && v < u) then begin
          incr candidates;
          if not (covered ~scsr g' u v) then begin
            incr broken;
            set_dirty u;
            set_dirty v;
            Ugraph.iter_common_neighbors set_dirty g' u v
          end
        end)
      g' u
  done;
  let dirty = t.dirty_buf.len in
  let repair_rounds = ref 0 and repair_iterations = ref 0 in
  if !broken > 0 then begin
    Bigcsr.sort_range t.dirty_buf.data 0 dirty;
    let active = Array.init dirty (fun i -> buf_get t.dirty_buf i) in
    let r =
      Two_spanner_local.run
        ~seed:(tick_seed t (t.tick + 1))
        ?sched ?par ?adversary ?retry ?trace ~active g'
    in
    repair_rounds := r.metrics.rounds;
    repair_iterations := r.iterations;
    (* The repair's edges are g'-edges, so those already in S are in
       S' too; the rest complete the diff. *)
    Edge.Set.iter
      (fun e ->
        let u, v = Edge.endpoints e in
        if not (Ugraph.mem_edge scsr u v) then Ugraph.Delta.add_insert sd u v)
      r.spanner
  end;
  for i = 0 to t.seed_buf.len - 1 do
    Bytes.unsafe_set mark (buf_get t.seed_buf i) '\000'
  done;
  for i = 0 to t.dirty_buf.len - 1 do
    Bytes.unsafe_set mark (buf_get t.dirty_buf i) '\000'
  done;
  Bigcsr.buf_reset t.seed_buf;
  Bigcsr.buf_reset t.dirty_buf;
  (* S'' = (S ∩ g') ∪ R, spliced into the CSR and the set alike. *)
  let scsr' = Ugraph.apply_delta scsr sd in
  let s = ref t.spanner in
  Ugraph.Delta.iter_deletes
    (fun u v -> s := Edge.Set.remove (Edge.make u v) !s)
    sd;
  Ugraph.Delta.iter_inserts
    (fun u v -> s := Edge.Set.add (Edge.make u v) !s)
    sd;
  t.graph <- g';
  t.scsr <- scsr';
  t.spanner <- !s;
  t.tick <- t.tick + 1;
  {
    tick = t.tick;
    deleted;
    inserted;
    seeds;
    candidates = !candidates;
    broken = !broken;
    dirty;
    repair_rounds = !repair_rounds;
    repair_iterations = !repair_iterations;
    spanner_size = Ugraph.m scsr';
  }

(* ------------------------------------------------------------------ *)
(* Seeded churn generation: [replace] uniform deletions of existing
   edges plus [replace] uniform insertions of absent ones. *)

let churn ~rng ~replace g d =
  if replace < 0 then invalid_arg "Incremental.churn: negative replace";
  Ugraph.Delta.reset d;
  let n = Ugraph.n g and m = Ugraph.m g in
  let dels = min replace m in
  let chosen = Hashtbl.create (4 * (dels + 1)) in
  while Ugraph.Delta.deletes d < dels do
    let u, v = Ugraph.slot_endpoints g (Rng.int rng (2 * m)) in
    let key = (min u v * n) + max u v in
    if not (Hashtbl.mem chosen key) then begin
      Hashtbl.replace chosen key ();
      Ugraph.Delta.add_delete d u v
    end
  done;
  (* Insertions must be absent from g (a just-deleted edge is still
     "present" to [apply_delta]'s checks, and is excluded here for
     free by the [mem_edge] probe). Possible only when the graph is
     not complete; the attempt cap turns a pathological density into
     an error instead of a hang. *)
  let ins = if n < 2 then 0 else replace in
  let attempts = ref 0 in
  let max_attempts = 100 * (ins + 10) in
  while Ugraph.Delta.inserts d < ins && !attempts < max_attempts do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Ugraph.mem_edge g u v) then begin
      let key = (min u v * n) + max u v in
      if not (Hashtbl.mem chosen key) then begin
        Hashtbl.replace chosen key ();
        Ugraph.Delta.add_insert d u v
      end
    end
  done;
  if Ugraph.Delta.inserts d < ins then
    invalid_arg "Incremental.churn: graph too dense to place insertions"
