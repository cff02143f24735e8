let eps = 1e-12

(* Edges are collected in a list, newest first. The first solve lays
   their arcs out per node (CSR) and fixes the network: node [u]'s arcs
   are [first.(u) .. first.(u + 1) - 1], in the order the edges touching
   [u] were added. Edge [k]'s forward arc is [fwd.(k)], and every arc
   [a] has its reverse at [rev.(a)]. The CSR arrays and the search
   scratch ([level], [cur], [queue], [path]) are allocated once, so
   solving, resetting and solving again allocates nothing. *)
type t = {
  n : int;
  mutable added : (int * int * float) list;
  mutable frozen : bool;
  first : int array;
  mutable fwd : int array;
  mutable dst : int array;
  mutable rev : int array;
  mutable cap0 : Float.Array.t;
  mutable cap : Float.Array.t;
  level : int array;
  cur : int array;
  queue : int array;
  path : int array;
}

let create n =
  {
    n;
    added = [];
    frozen = false;
    first = Array.make (n + 1) 0;
    fwd = [||];
    dst = [||];
    rev = [||];
    cap0 = Float.Array.create 0;
    cap = Float.Array.create 0;
    level = Array.make n (-1);
    cur = Array.make n 0;
    queue = Array.make n 0;
    path = Array.make n 0;
  }

let check_cap where cap =
  if cap < 0.0 then invalid_arg ("Maxflow." ^ where ^ ": negative capacity")

let add_edge t ~src ~dst ~cap =
  check_cap "add_edge" cap;
  if t.frozen then invalid_arg "Maxflow.add_edge: network already solved";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Maxflow.add_edge: node out of range";
  t.added <- (src, dst, cap) :: t.added

let freeze t =
  if not t.frozen then begin
    t.frozen <- true;
    let edges = List.rev t.added in
    t.added <- [];
    let m = List.length edges in
    let arcs = 2 * m in
    t.fwd <- Array.make m 0;
    t.dst <- Array.make arcs 0;
    t.rev <- Array.make arcs 0;
    t.cap0 <- Float.Array.make arcs 0.0;
    List.iter
      (fun (u, v, _) ->
        t.first.(u + 1) <- t.first.(u + 1) + 1;
        t.first.(v + 1) <- t.first.(v + 1) + 1)
      edges;
    for u = 0 to t.n - 1 do
      t.first.(u + 1) <- t.first.(u + 1) + t.first.(u)
    done;
    (* [cur] serves as the per-node fill pointer. *)
    Array.blit t.first 0 t.cur 0 t.n;
    List.iteri
      (fun k (u, v, c) ->
        let a = t.cur.(u) in
        t.cur.(u) <- a + 1;
        let b = t.cur.(v) in
        t.cur.(v) <- b + 1;
        t.fwd.(k) <- a;
        t.dst.(a) <- v;
        t.dst.(b) <- u;
        t.rev.(a) <- b;
        t.rev.(b) <- a;
        Float.Array.set t.cap0 a c)
      edges;
    t.cap <- Float.Array.copy t.cap0
  end

let reset t =
  freeze t;
  Float.Array.blit t.cap0 0 t.cap 0 (Float.Array.length t.cap0)

let set_cap t k cap =
  check_cap "set_cap" cap;
  freeze t;
  if k < 0 || k >= Array.length t.fwd then
    invalid_arg "Maxflow.set_cap: no such edge";
  Float.Array.set t.cap t.fwd.(k) cap

(* Breadth-first search from [s] over arcs with residual capacity above
   [eps]; [level.(v)] is [v]'s distance, or -1 when unreachable. *)
let bfs t ~s =
  Array.fill t.level 0 t.n (-1);
  t.level.(s) <- 0;
  t.queue.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = t.queue.(!head) in
    incr head;
    for a = t.first.(u) to t.first.(u + 1) - 1 do
      let v = t.dst.(a) in
      if Float.Array.get t.cap a > eps && t.level.(v) = -1 then begin
        t.level.(v) <- t.level.(u) + 1;
        t.queue.(!tail) <- v;
        incr tail
      end
    done
  done

(* Dinic: BFS levels, then a blocking flow found by repeated depth-first
   searches from [s] that advance a current arc per node. The search is
   iterative: [path] holds the arcs from [s] to [u]; an arc is followed
   when it has residual capacity above [eps] and leads one level down;
   a node whose arcs are used up is retreated from, advancing its
   parent's current arc. At the sink the bottleneck is pushed along the
   whole path and the next search starts again from [s]. *)
let max_flow t ~s ~t:sink =
  if s = sink then invalid_arg "Maxflow.max_flow: s = t";
  freeze t;
  let cap = t.cap and level = t.level and cur = t.cur and path = t.path in
  let flow = ref 0.0 in
  bfs t ~s;
  while level.(sink) <> -1 do
    Array.blit t.first 0 cur 0 t.n;
    let u = ref s and depth = ref 0 and searching = ref true in
    while !searching do
      if !u = sink then begin
        let pushed = ref infinity in
        for i = 0 to !depth - 1 do
          let c = Float.Array.get cap path.(i) in
          if not (!pushed <= c) then pushed := c
        done;
        let d = !pushed in
        for i = 0 to !depth - 1 do
          let a = path.(i) in
          let b = t.rev.(a) in
          Float.Array.set cap a (Float.Array.get cap a -. d);
          Float.Array.set cap b (Float.Array.get cap b +. d)
        done;
        flow := !flow +. d;
        u := s;
        depth := 0
      end
      else begin
        let a = cur.(!u) in
        if a < t.first.(!u + 1) then begin
          let v = t.dst.(a) in
          if Float.Array.get cap a > eps && level.(v) = level.(!u) + 1 then begin
            path.(!depth) <- a;
            incr depth;
            u := v
          end
          else cur.(!u) <- a + 1
        end
        else if !depth = 0 then searching := false
        else begin
          decr depth;
          u := t.dst.(t.rev.(path.(!depth)));
          cur.(!u) <- cur.(!u) + 1
        end
      end
    done;
    bfs t ~s
  done;
  !flow

let min_cut_side t ~s =
  freeze t;
  bfs t ~s;
  Array.init t.n (fun v -> t.level.(v) >= 0)
