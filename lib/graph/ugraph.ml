(* Immutable undirected simple graphs as an int-packed CSR adjacency.

   The representation is a [(row_ptr, col)] pair of off-heap Bigarrays:
   [col.(row_ptr.(u)) .. col.(row_ptr.(u+1) - 1)] is the sorted
   neighbor row of [u]. Degree is two row_ptr reads, membership is a
   binary search in the lower-degree endpoint's row, and iteration is
   pointer arithmetic over a flat buffer — no per-vertex array objects,
   no GC scanning proportional to m, no minor-heap traffic on any hot
   path. A graph of n vertices and m edges occupies exactly
   8 * (n + 1 + 2m) bytes regardless of how it was built. *)

type t = { n : int; m : int; row_ptr : Bigcsr.ba; col : Bigcsr.ba }

let validate_vertex n u =
  if u < 0 || u >= n then
    invalid_arg (Printf.sprintf "Ugraph: vertex %d out of range [0,%d)" u n)

module Builder = struct

  (* Endpoint pairs accumulate in two parallel off-heap buffers; the
     CSR is produced by one counting pass, one scatter pass, a per-row
     sort and an in-place dedup. Nothing about the build materializes
     a per-edge OCaml value, so streaming a million-vertex graph
     through [add_edge] allocates O(1) words on the OCaml heap. *)
  type builder = {
    mutable bn : int;
    us : Bigcsr.buf;
    vs : Bigcsr.buf;
    mutable finished : bool;
  }

  let create ?(expected_edges = 1024) ~n () =
    if n < 0 then invalid_arg "Ugraph.Builder.create: negative n";
    {
      bn = n;
      us = Bigcsr.buf_create expected_edges;
      vs = Bigcsr.buf_create expected_edges;
      finished = false;
    }

  let add_edge b u v =
    if b.finished then invalid_arg "Ugraph.Builder: already finished";
    validate_vertex b.bn u;
    validate_vertex b.bn v;
    if u = v then
      invalid_arg (Printf.sprintf "Ugraph: self-loop at vertex %d" u);
    Bigcsr.buf_push b.us u;
    Bigcsr.buf_push b.vs v

  let finish b =
    if b.finished then invalid_arg "Ugraph.Builder: already finished";
    b.finished <- true;
    let n = b.bn and len = b.us.Bigcsr.len in
    let us = b.us.Bigcsr.data and vs = b.vs.Bigcsr.data in
    let row_ptr = Bigcsr.create_zeroed (n + 1) in
    (* degree count (duplicates included; they vanish in the dedup) *)
    for i = 0 to len - 1 do
      let u = Bigarray.Array1.unsafe_get us i
      and v = Bigarray.Array1.unsafe_get vs i in
      Bigarray.Array1.unsafe_set row_ptr (u + 1)
        (Bigarray.Array1.unsafe_get row_ptr (u + 1) + 1);
      Bigarray.Array1.unsafe_set row_ptr (v + 1)
        (Bigarray.Array1.unsafe_get row_ptr (v + 1) + 1)
    done;
    (* exclusive prefix sum: row_ptr.(u) = start of row u *)
    for u = 1 to n do
      Bigarray.Array1.unsafe_set row_ptr u
        (Bigarray.Array1.unsafe_get row_ptr u
        + Bigarray.Array1.unsafe_get row_ptr (u - 1))
    done;
    let col = Bigcsr.create (2 * len) in
    let cursor = Bigcsr.create (max n 1) in
    if n > 0 then
      Bigarray.Array1.blit
        (Bigarray.Array1.sub row_ptr 0 n)
        (Bigarray.Array1.sub cursor 0 n);
    for i = 0 to len - 1 do
      let u = Bigarray.Array1.unsafe_get us i
      and v = Bigarray.Array1.unsafe_get vs i in
      let cu = Bigarray.Array1.unsafe_get cursor u in
      Bigarray.Array1.unsafe_set col cu v;
      Bigarray.Array1.unsafe_set cursor u (cu + 1);
      let cv = Bigarray.Array1.unsafe_get cursor v in
      Bigarray.Array1.unsafe_set col cv u;
      Bigarray.Array1.unsafe_set cursor v (cv + 1)
    done;
    (* sort each row, then compact duplicates in place, rebuilding
       row_ptr as the write cursor advances *)
    let w = ref 0 in
    let lo = ref 0 in
    for u = 0 to n - 1 do
      let hi = Bigarray.Array1.unsafe_get row_ptr (u + 1) in
      Bigcsr.sort_range col !lo hi;
      Bigarray.Array1.unsafe_set row_ptr u !w;
      let prev = ref (-1) in
      for i = !lo to hi - 1 do
        let v = Bigarray.Array1.unsafe_get col i in
        if v <> !prev then begin
          Bigarray.Array1.unsafe_set col !w v;
          incr w;
          prev := v
        end
      done;
      lo := hi
    done;
    Bigarray.Array1.unsafe_set row_ptr n !w;
    let col =
      if !w = 2 * len then col
      else begin
        let exact = Bigcsr.create !w in
        if !w > 0 then
          Bigarray.Array1.blit (Bigarray.Array1.sub col 0 !w) exact;
        exact
      end
    in
    { n; m = !w / 2; row_ptr; col }
end

module Delta = struct
  (* A batched edge update: canonicalized (u < v) endpoint pairs in
     four off-heap buffers plus two reusable key workspaces for
     [apply_delta]'s validation and row splice. The record is a
     mutable accumulator; [reset] rewinds it for the next tick without
     touching the allocator. *)
  type t = {
    ins_u : Bigcsr.buf;
    ins_v : Bigcsr.buf;
    del_u : Bigcsr.buf;
    del_v : Bigcsr.buf;
    dkeys : Bigcsr.buf;  (* scratch: sorted packed delete keys *)
    ikeys : Bigcsr.buf;  (* scratch: sorted packed insert keys *)
  }

  let create ?(expected = 64) () =
    {
      ins_u = Bigcsr.buf_create expected;
      ins_v = Bigcsr.buf_create expected;
      del_u = Bigcsr.buf_create expected;
      del_v = Bigcsr.buf_create expected;
      dkeys = Bigcsr.buf_create expected;
      ikeys = Bigcsr.buf_create expected;
    }

  let reset d =
    Bigcsr.buf_reset d.ins_u;
    Bigcsr.buf_reset d.ins_v;
    Bigcsr.buf_reset d.del_u;
    Bigcsr.buf_reset d.del_v

  let canon name u v =
    if u < 0 || v < 0 then
      invalid_arg (Printf.sprintf "Ugraph.Delta.%s: negative vertex" name);
    if u = v then
      invalid_arg
        (Printf.sprintf "Ugraph.Delta.%s: self-loop at vertex %d" name u);
    if u < v then (u, v) else (v, u)

  let add_insert d u v =
    let u, v = canon "insert" u v in
    Bigcsr.buf_push d.ins_u u;
    Bigcsr.buf_push d.ins_v v

  let add_delete d u v =
    let u, v = canon "delete" u v in
    Bigcsr.buf_push d.del_u u;
    Bigcsr.buf_push d.del_v v

  let inserts d = d.ins_u.Bigcsr.len
  let deletes d = d.del_u.Bigcsr.len

  let iter_pairs us vs f =
    let len = us.Bigcsr.len in
    let ud = us.Bigcsr.data and vd = vs.Bigcsr.data in
    for i = 0 to len - 1 do
      f (Bigarray.Array1.unsafe_get ud i) (Bigarray.Array1.unsafe_get vd i)
    done

  let iter_inserts f d = iter_pairs d.ins_u d.ins_v f
  let iter_deletes f d = iter_pairs d.del_u d.del_v f
end

(* [dst.len <- 0], then the packed canonical keys [u * n + v] of the
   pairs, sorted ascending. Adjacent duplicates raise. *)
let delta_sorted_keys ~what ~n us vs (dst : Bigcsr.buf) =
  Bigcsr.buf_reset dst;
  Delta.iter_pairs us vs (fun u v ->
      validate_vertex n u;
      validate_vertex n v;
      Bigcsr.buf_push dst ((u * n) + v));
  Bigcsr.sort_range dst.Bigcsr.data 0 dst.Bigcsr.len;
  for i = 1 to dst.Bigcsr.len - 1 do
    if
      Bigarray.Array1.unsafe_get dst.Bigcsr.data i
      = Bigarray.Array1.unsafe_get dst.Bigcsr.data (i - 1)
    then
      let key = Bigarray.Array1.unsafe_get dst.Bigcsr.data i in
      invalid_arg
        (Printf.sprintf "Ugraph.apply_delta: duplicate %s (%d, %d)" what
           (key / n) (key mod n))
  done

let of_edge_iter ?expected_edges ~n iter =
  let b = Builder.create ?expected_edges ~n () in
  iter (fun u v -> Builder.add_edge b u v);
  Builder.finish b

let of_edge_set ~n set =
  of_edge_iter ~expected_edges:(Edge.Set.cardinal set) ~n (fun emit ->
      Edge.Set.iter
        (fun e ->
          let u, v = Edge.endpoints e in
          emit u v)
        set)

let of_edges ~n edges =
  of_edge_iter ~n (fun emit ->
      List.iter
        (fun (u, v) ->
          (* [Edge.make] keeps the historical self-loop diagnostic *)
          let u, v = Edge.endpoints (Edge.make u v) in
          emit u v)
        edges)

let empty n = of_edge_iter ~expected_edges:0 ~n (fun _ -> ())
let n g = g.n
let m g = g.m

let degree g u =
  Bigarray.Array1.get g.row_ptr (u + 1) - Bigarray.Array1.get g.row_ptr u

let max_degree g =
  let best = ref 0 in
  for u = 0 to g.n - 1 do
    let d =
      Bigarray.Array1.unsafe_get g.row_ptr (u + 1)
      - Bigarray.Array1.unsafe_get g.row_ptr u
    in
    if d > !best then best := d
  done;
  !best

let neighbors g u =
  let lo = Bigarray.Array1.get g.row_ptr u
  and hi = Bigarray.Array1.get g.row_ptr (u + 1) in
  Array.init (hi - lo) (fun i -> Bigarray.Array1.unsafe_get g.col (lo + i))

(* Direct loops over the flat neighbor row: no array value escapes and
   nothing is copied, so hot paths pay two row_ptr reads and then one
   load per neighbor. *)
let iter_neighbors f g u =
  let lo = Bigarray.Array1.get g.row_ptr u
  and hi = Bigarray.Array1.get g.row_ptr (u + 1) in
  for i = lo to hi - 1 do
    f (Bigarray.Array1.unsafe_get g.col i)
  done

let fold_neighbors f g u init =
  let lo = Bigarray.Array1.get g.row_ptr u
  and hi = Bigarray.Array1.get g.row_ptr (u + 1) in
  let acc = ref init in
  for i = lo to hi - 1 do
    acc := f !acc (Bigarray.Array1.unsafe_get g.col i)
  done;
  !acc

let mem_edge g u v =
  if u = v then false
  else begin
    (* Binary search in the sorted row of the lower-degree endpoint.
       Iterative: the engine probes this once per delivered message,
       and an inner recursive closure would allocate on every call. *)
    let rp = g.row_ptr in
    let ulo = Bigarray.Array1.get rp u
    and uhi = Bigarray.Array1.get rp (u + 1)
    and vlo = Bigarray.Array1.get rp v
    and vhi = Bigarray.Array1.get rp (v + 1) in
    let swap = uhi - ulo > vhi - vlo in
    let lo = ref (if swap then vlo else ulo)
    and hi = ref (if swap then vhi else uhi) in
    let x = if swap then u else v in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let y = Bigarray.Array1.unsafe_get g.col mid in
      if y = x then found := true else if y < x then lo := mid + 1 else hi := mid
    done;
    !found
  end

(* Directed slot of [v] inside [u]'s row. Unlike [mem_edge] this must
   search [u]'s row specifically (not the lower-degree endpoint's): the
   returned index is a stable per-directed-edge identifier in
   [0, 2m), which the engine's frugal layer uses to key per-edge send
   memos without hashing. *)
let edge_slot g u v =
  if u = v then -1
  else begin
    let rp = g.row_ptr in
    let lo = ref (Bigarray.Array1.get rp u)
    and hi = ref (Bigarray.Array1.get rp (u + 1)) in
    let slot = ref (-1) in
    while !slot < 0 && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let y = Bigarray.Array1.unsafe_get g.col mid in
      if y = v then slot := mid else if y < v then lo := mid + 1 else hi := mid
    done;
    !slot
  end

(* Inverse of [edge_slot]: binary-search [row_ptr] for the row owning
   the slot. Uniform sampling over slots is uniform over edges (every
   edge owns exactly two slots), which is how the churn generator
   draws deletions without materializing an edge list. *)
let slot_endpoints g i =
  if i < 0 || i >= 2 * g.m then
    invalid_arg "Ugraph.slot_endpoints: slot out of range";
  let rp = g.row_ptr in
  let lo = ref 0 and hi = ref (g.n - 1) in
  (* Invariant: row_ptr.(!lo) <= i < row_ptr.(!hi + ...). Find the
     largest u with row_ptr.(u) <= i. *)
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if Bigarray.Array1.get rp mid <= i then lo := mid else hi := mid - 1
  done;
  (!lo, Bigarray.Array1.get g.col i)

(* Ascending-merge intersection of two sorted neighbor rows: the
   smallest common neighbor, or -1. This is the stretch-2 certificate
   probe — (u, v) is 2-spanned by an edge set exactly when the set
   contains (u, v) or a common neighbor in the set's CSR — and runs in
   O(deg u + deg v) with no allocation, which is what lets the churn
   path check certificates and full validity at the 10^5/10^6
   anchors. *)
let common_neighbor g u v =
  let rp = g.row_ptr in
  let i = ref (Bigarray.Array1.get rp u)
  and ihi = Bigarray.Array1.get rp (u + 1)
  and j = ref (Bigarray.Array1.get rp v)
  and jhi = Bigarray.Array1.get rp (v + 1) in
  let res = ref (-1) in
  while !res < 0 && !i < ihi && !j < jhi do
    let a = Bigarray.Array1.unsafe_get g.col !i
    and b = Bigarray.Array1.unsafe_get g.col !j in
    if a = b then res := a else if a < b then incr i else incr j
  done;
  !res

(* Same merge, without the early exit: every common neighbor, in
   ascending order. The churn path's dirty-ball construction needs all
   the 2-path midpoints of a broken edge, not just a witness. *)
let iter_common_neighbors f g u v =
  let rp = g.row_ptr in
  let i = ref (Bigarray.Array1.get rp u)
  and ihi = Bigarray.Array1.get rp (u + 1)
  and j = ref (Bigarray.Array1.get rp v)
  and jhi = Bigarray.Array1.get rp (v + 1) in
  while !i < ihi && !j < jhi do
    let a = Bigarray.Array1.unsafe_get g.col !i
    and b = Bigarray.Array1.unsafe_get g.col !j in
    if a = b then begin
      f a;
      incr i;
      incr j
    end
    else if a < b then incr i
    else incr j
  done

(* One merge per row: [sub]'s row of [u] must be a subsequence of
   [g]'s (a [sub] neighbour the merge steps past is missing from [g]),
   and every [g]-neighbour [v > u] the merge does not meet in [sub]'s
   row is reported. *)
let iter_edges_outside f g ~sub =
  if sub.n <> g.n then
    invalid_arg "Ugraph.iter_edges_outside: vertex counts differ";
  let outside u w =
    invalid_arg
      (Printf.sprintf "Ugraph.iter_edges_outside: edge (%d, %d) not in graph"
         u w)
  in
  for u = 0 to g.n - 1 do
    let j = ref (Bigarray.Array1.unsafe_get sub.row_ptr u)
    and jhi = Bigarray.Array1.unsafe_get sub.row_ptr (u + 1) in
    for i =
      Bigarray.Array1.unsafe_get g.row_ptr u
      to Bigarray.Array1.unsafe_get g.row_ptr (u + 1) - 1
    do
      let v = Bigarray.Array1.unsafe_get g.col i in
      let w =
        if !j < jhi then Bigarray.Array1.unsafe_get sub.col !j else max_int
      in
      if w < v then outside u w
      else if w = v then incr j
      else if u < v then f u v
    done;
    if !j < jhi then outside u (Bigarray.Array1.unsafe_get sub.col !j)
  done

(* Does [dsts.(lo .. hi-1)] spell out exactly [u]'s neighbor row?
   Allocation-free; used to recognize full-neighborhood broadcasts
   from an outbox segment without touching per-edge state. *)
let row_matches g u dsts ~lo ~hi =
  let rlo = Bigarray.Array1.get g.row_ptr u
  and rhi = Bigarray.Array1.get g.row_ptr (u + 1) in
  hi - lo = rhi - rlo
  &&
  let ok = ref true in
  let i = ref lo and j = ref rlo in
  while !ok && !i < hi do
    if Array.unsafe_get dsts !i <> Bigarray.Array1.unsafe_get g.col !j then
      ok := false;
    incr i;
    incr j
  done;
  !ok

(* Allocation-free edge iteration: each edge visited once as the
   ordered pair (u, v) with u < v, in ascending lexicographic order. *)
let iter_edges_uv f g =
  let lo = ref 0 in
  for u = 0 to g.n - 1 do
    let hi = Bigarray.Array1.unsafe_get g.row_ptr (u + 1) in
    for i = !lo to hi - 1 do
      let v = Bigarray.Array1.unsafe_get g.col i in
      if u < v then f u v
    done;
    lo := hi
  done

let fold_edges_uv f g init =
  let acc = ref init in
  iter_edges_uv (fun u v -> acc := f !acc u v) g;
  !acc

let iter_edges f g = iter_edges_uv (fun u v -> f (Edge.make u v)) g

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun e -> acc := f e !acc) g;
  !acc

let edges g = List.rev (fold_edges (fun e acc -> e :: acc) g [])
let edge_set g = fold_edges Edge.Set.add g Edge.Set.empty

let fold_vertices f g init =
  let acc = ref init in
  for u = 0 to g.n - 1 do
    acc := f u !acc
  done;
  !acc

let iter_vertices f g =
  for u = 0 to g.n - 1 do
    f u
  done

(* [keys] holds the sorted canonical keys [u * n + v] (u < v) of one
   side of a validated delta; rewrite it in place as the sorted
   directed keys of both orientations, so each row's changes form one
   ascending run: [u]'s run is the keys in [u * n, u * n + n). *)
let direct_keys ~n (keys : Bigcsr.buf) =
  let len = keys.Bigcsr.len in
  for i = 0 to len - 1 do
    let k = Bigarray.Array1.unsafe_get keys.Bigcsr.data i in
    Bigcsr.buf_push keys ((k mod n * n) + (k / n))
  done;
  Bigcsr.sort_range keys.Bigcsr.data 0 keys.Bigcsr.len

(* The neighbour named by directed key [keys.(i)] if that key lies in
   the row [base, row_end), else [max_int]. *)
let run_head keys len i ~base ~row_end =
  if i < len then
    let key = Bigarray.Array1.unsafe_get keys i in
    if key < row_end then key - base else max_int
  else max_int

(* Row splice: one pass over the rows, copying each untouched row as
   it is and, in a touched row, dropping the deleted neighbours while
   merging the inserted ones in — O(n + m + |d| log |d|), with the
   per-row change runs read off the Delta's sorted directed keys. The
   result is the canonical CSR a from-scratch build of the edited edge
   list would produce. Every check runs before the first write, so a
   rejected delta leaves no partial state. *)
let apply_delta g (d : Delta.t) =
  let n = g.n in
  (* Sorted key workspaces double as the validation pass: duplicate
     inserts and duplicate deletes raise there. *)
  delta_sorted_keys ~what:"delete" ~n d.Delta.del_u d.Delta.del_v
    d.Delta.dkeys;
  delta_sorted_keys ~what:"insert" ~n d.Delta.ins_u d.Delta.ins_v
    d.Delta.ikeys;
  (* A key on both lists is ambiguous — reject rather than pick an
     order. Merge walk over the two sorted workspaces. *)
  let i = ref 0 and j = ref 0 in
  let dk = d.Delta.dkeys and ik = d.Delta.ikeys in
  while !i < dk.Bigcsr.len && !j < ik.Bigcsr.len do
    let a = Bigarray.Array1.unsafe_get dk.Bigcsr.data !i
    and b = Bigarray.Array1.unsafe_get ik.Bigcsr.data !j in
    if a = b then
      invalid_arg
        (Printf.sprintf
           "Ugraph.apply_delta: edge (%d, %d) both inserted and deleted"
           (a / n) (a mod n))
    else if a < b then incr i
    else incr j
  done;
  Delta.iter_deletes
    (fun u v ->
      if not (mem_edge g u v) then
        invalid_arg
          (Printf.sprintf "Ugraph.apply_delta: deleted edge (%d, %d) absent"
             u v))
    d;
  Delta.iter_inserts
    (fun u v ->
      if mem_edge g u v then
        invalid_arg
          (Printf.sprintf
             "Ugraph.apply_delta: inserted edge (%d, %d) already present" u v))
    d;
  direct_keys ~n dk;
  direct_keys ~n ik;
  let m' = g.m - Delta.deletes d + Delta.inserts d in
  let row_ptr = Bigcsr.create (n + 1) and col = Bigcsr.create (2 * m') in
  let src = g.col and dks = dk.Bigcsr.data and iks = ik.Bigcsr.data in
  let dlen = dk.Bigcsr.len and ilen = ik.Bigcsr.len in
  (* [di]/[ii] index the next unconsumed directed delete/insert key;
     [w] is the write cursor. No closure is built per row, so the
     splice's OCaml-heap cost is O(1) words whatever the graph size. *)
  let di = ref 0 and ii = ref 0 and w = ref 0 in
  for u = 0 to n - 1 do
    Bigarray.Array1.unsafe_set row_ptr u !w;
    let lo = Bigarray.Array1.unsafe_get g.row_ptr u
    and hi = Bigarray.Array1.unsafe_get g.row_ptr (u + 1) in
    let base = u * n in
    let row_end = base + n in
    let touched =
      (!di < dlen && Bigarray.Array1.unsafe_get dks !di < row_end)
      || (!ii < ilen && Bigarray.Array1.unsafe_get iks !ii < row_end)
    in
    if not touched then begin
      for k = lo to hi - 1 do
        Bigarray.Array1.unsafe_set col (!w + k - lo)
          (Bigarray.Array1.unsafe_get src k)
      done;
      w := !w + hi - lo
    end
    else begin
      (* Deleted neighbours are present in the row and inserted ones
         absent, so the three sorted runs merge without ties. *)
      let k = ref lo in
      let b = ref (run_head iks ilen !ii ~base ~row_end) in
      while !k < hi || !b < max_int do
        let a =
          if !k < hi then Bigarray.Array1.unsafe_get src !k else max_int
        in
        if a < !b then begin
          if
            !di < dlen && Bigarray.Array1.unsafe_get dks !di = base + a
          then incr di
          else begin
            Bigarray.Array1.unsafe_set col !w a;
            incr w
          end;
          incr k
        end
        else begin
          Bigarray.Array1.unsafe_set col !w !b;
          incr w;
          incr ii;
          b := run_head iks ilen !ii ~base ~row_end
        end
      done
    end
  done;
  Bigarray.Array1.unsafe_set row_ptr n !w;
  assert (!w = 2 * m');
  { n; m = m'; row_ptr; col }

let induced_by_edges g s =
  Edge.Set.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      if not (mem_edge g u v) then
        invalid_arg "Ugraph.induced_by_edges: edge not in graph")
    s;
  of_edge_set ~n:g.n s

(* The CSR layout is canonical (rows sorted, duplicates merged, exact
   buffer sizes), so equality is a flat comparison — no edge sets. *)
let equal a b =
  a.n = b.n && a.m = b.m
  &&
  let ok = ref true in
  for u = 0 to a.n do
    if
      Bigarray.Array1.unsafe_get a.row_ptr u
      <> Bigarray.Array1.unsafe_get b.row_ptr u
    then ok := false
  done;
  if !ok then
    for i = 0 to (2 * a.m) - 1 do
      if
        Bigarray.Array1.unsafe_get a.col i
        <> Bigarray.Array1.unsafe_get b.col i
      then ok := false
    done;
  !ok

let resident_bytes g =
  8 * (Bigarray.Array1.dim g.row_ptr + Bigarray.Array1.dim g.col)

let pp ppf g =
  Format.fprintf ppf "@[<hov 2>graph(n=%d, m=%d:" g.n g.m;
  iter_edges (fun e -> Format.fprintf ppf "@ %a" Edge.pp e) g;
  Format.fprintf ppf ")@]"
