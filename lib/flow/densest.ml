let density_of ?weights ?bonuses ~edges subset =
  let module S = Set.Make (Int) in
  let s = S.of_list subset in
  let inside = List.filter (fun (u, v) -> S.mem u s && S.mem v s) edges in
  let weight v = match weights with None -> 1.0 | Some w -> w.(v) in
  let bonus v = match bonuses with None -> 0.0 | Some b -> b.(v) in
  let total = List.fold_left (fun acc v -> acc +. weight v) 0.0 subset in
  let gain =
    float_of_int (List.length inside)
    +. List.fold_left (fun acc v -> acc +. bonus v) 0.0 subset
  in
  if total = 0.0 then infinity else gain /. total

let validate ?weights ?bonuses ~n ~edges () =
  (match weights with
  | Some w ->
      if Array.length w <> n then invalid_arg "Densest: weights length";
      Array.iter
        (fun x -> if x <= 0.0 then invalid_arg "Densest: non-positive weight")
        w
  | None -> ());
  (match bonuses with
  | Some b ->
      if Array.length b <> n then invalid_arg "Densest: bonuses length";
      Array.iter
        (fun x -> if x < 0.0 then invalid_arg "Densest: negative bonus")
        b
  | None -> ());
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n || u = v then
        invalid_arg "Densest: bad edge")
    edges

let solver_calls = ref 0
let probes = ref 0

(* Goldberg's network for the instance, with source [n] and sink
   [n + 1]: for each node [v] the edges s->v (number [2v]) and v->t
   (number [2v + 1]), then both directions of every edge in [edges]
   order. Built once per oracle call; each probe resets it and writes
   only the sink capacities, which carry the guess. *)
let goldberg_network ~n ~edges ~big =
  let net = Maxflow.create (n + 2) in
  for v = 0 to n - 1 do
    Maxflow.add_edge net ~src:n ~dst:v ~cap:big;
    Maxflow.add_edge net ~src:v ~dst:(n + 1) ~cap:big
  done;
  List.iter
    (fun (u, v) ->
      Maxflow.add_edge net ~src:u ~dst:v ~cap:1.0;
      Maxflow.add_edge net ~src:v ~dst:u ~cap:1.0)
    edges;
  net

(* Source side of the min cut of Goldberg's network at guess [g];
   returns the subset (possibly empty) and whether the cut is strictly
   below the trivial cut, i.e. whether a subset of density > g
   exists. *)
let probe net ~weights ~bonuses ~n ~deg ~big g =
  incr probes;
  Maxflow.reset net;
  for v = 0 to n - 1 do
    let w = match weights with None -> 1.0 | Some w -> w.(v) in
    let b = match bonuses with None -> 0.0 | Some b -> b.(v) in
    Maxflow.set_cap net ((2 * v) + 1)
      (big +. (2.0 *. g *. w) -. deg.(v) -. (2.0 *. b))
  done;
  let flow = Maxflow.max_flow net ~s:n ~t:(n + 1) in
  let trivial = big *. float_of_int n in
  let feasible = flow < trivial -. 1e-6 in
  if not feasible then ([], false)
  else begin
    let side = Maxflow.min_cut_side net ~s:n in
    let subset = ref [] in
    for v = n - 1 downto 0 do
      if side.(v) then subset := v :: !subset
    done;
    (!subset, true)
  end

(* ------------------------------------------------------------------ *)
(* Exhaustive bitmask search for tiny instances.

   The protocol's per-star subproblems almost always have a handful of
   paying neighbors; enumerating the 2^n subsets with subset-DP tables
   (O(2^n) word operations) beats a parametric max-flow binary search
   by a wide margin there. Duplicate edges would be conflated by the
   adjacency bitmasks, so those instances fall through to the flow
   solver. *)

let small_n_limit = 12

(* Per-12-bit-mask popcount and lowest-set-bit-index tables. Built
   eagerly at module init: the oracle runs inside vertex handlers,
   which execute on pool domains under [Engine.run ~par], and a
   module-global [lazy] forced from two domains at once raises
   [CamlinternalLazy.Undefined]. 2^12 words is cheap enough to never
   defer. *)
let small_tables =
  let size = 1 lsl small_n_limit in
  let pc = Array.make size 0 in
  let lb = Array.make size 0 in
  for i = 1 to size - 1 do
    pc.(i) <- pc.(i lsr 1) + (i land 1);
    lb.(i) <- (if i land 1 = 1 then 0 else lb.(i lsr 1) + 1)
  done;
  (pc, lb)

(* [None] when duplicate edges prevent the bitmask encoding. *)
let exhaustive_small ?weights ?bonuses ~n ~edges () =
  let adj = Array.make n 0 in
  let seen = Hashtbl.create (2 * List.length edges) in
  let dup = ref false in
  List.iter
    (fun (u, v) ->
      let key = if u < v then (u, v) else (v, u) in
      if Hashtbl.mem seen key then dup := true
      else begin
        Hashtbl.add seen key ();
        adj.(u) <- adj.(u) lor (1 lsl v);
        adj.(v) <- adj.(v) lor (1 lsl u)
      end)
    edges;
  if !dup then None
  else begin
    let weight v = match weights with None -> 1.0 | Some w -> w.(v) in
    let bonus v = match bonuses with None -> 0.0 | Some b -> b.(v) in
    let pc, lb = small_tables in
    let size = 1 lsl n in
    let inside = Array.make size 0 in
    let wsum = Array.make size 0.0 in
    let bsum = Array.make size 0.0 in
    let best = ref 0 and best_density = ref neg_infinity in
    for mask = 1 to size - 1 do
      let v = lb.(mask) in
      let rest = mask land (mask - 1) in
      inside.(mask) <- inside.(rest) + pc.(adj.(v) land rest);
      wsum.(mask) <- wsum.(rest) +. weight v;
      bsum.(mask) <- bsum.(rest) +. bonus v;
      let d = (float_of_int inside.(mask) +. bsum.(mask)) /. wsum.(mask) in
      if d > !best_density then begin
        best := mask;
        best_density := d
      end
    done;
    let subset = ref [] in
    for v = n - 1 downto 0 do
      if !best land (1 lsl v) <> 0 then subset := v :: !subset
    done;
    (* Report the density with the same summation order as
       [density_of], so callers that recompute see the identical
       float. *)
    Some (!subset, density_of ?weights ?bonuses ~edges !subset)
  end

let densest_subset ?weights ?bonuses ~n ~edges () =
  incr solver_calls;
  validate ?weights ?bonuses ~n ~edges ();
  let weight v = match weights with None -> 1.0 | Some w -> w.(v) in
  let bonus v = match bonuses with None -> 0.0 | Some b -> b.(v) in
  let total_bonus = ref 0.0 in
  for v = 0 to n - 1 do
    total_bonus := !total_bonus +. bonus v
  done;
  (* A sensible starting incumbent: the endpoints of the first edge, or
     the best single node when only bonuses contribute. *)
  let seed =
    match edges with
    | (u0, v0) :: _ -> Some (List.sort_uniq compare [ u0; v0 ])
    | [] ->
        let best = ref None in
        for v = 0 to n - 1 do
          if bonus v > 0.0 then
            match !best with
            | Some b when bonus b /. weight b >= bonus v /. weight v -> ()
            | _ -> best := Some v
        done;
        Option.map (fun v -> [ v ]) !best
  in
  let fast =
    if seed <> None && n <= small_n_limit then
      exhaustive_small ?weights ?bonuses ~n ~edges ()
    else None
  in
  match (fast, seed) with
  | Some _, _ -> fast
  | None, None -> None
  | None, Some seed ->
      let m = List.length edges in
      let deg = Array.make n 0.0 in
      List.iter
        (fun (u, v) ->
          deg.(u) <- deg.(u) +. 1.0;
          deg.(v) <- deg.(v) +. 1.0)
        edges;
      let exact subset = density_of ?weights ?bonuses ~edges subset in
      let best = ref seed in
      let best_density = ref (exact seed) in
      let min_weight =
        match weights with
        | None -> 1.0
        | Some w -> Array.fold_left min w.(0) w
      in
      let max_bonus =
        match bonuses with
        | None -> 0.0
        | Some b -> Array.fold_left max 0.0 b
      in
      let big = (2.0 *. float_of_int m) +. (2.0 *. max_bonus) +. 1.0 in
      let net = goldberg_network ~n ~edges ~big in
      (* The incumbent's exact density is a certified lower bound, so
         the search can start there instead of at zero. *)
      let lo = ref (Float.max 0.0 !best_density) in
      (* With unit weights a k-subset spans at most k(k-1)/2 edges and
         collects at most k*max_bonus, so the density never exceeds
         (n-1)/2 + max_bonus; otherwise fall back to the coarse
         (m + B)/min_weight bound. *)
      let hi =
        ref
          (match weights with
          | None -> ((float_of_int n -. 1.0) /. 2.0) +. max_bonus +. 1.0
          | Some _ ->
              ((float_of_int m +. !total_bonus) /. min_weight) +. 1.0)
      in
      (* With unit weights (bonuses integral in all our uses) any two
         distinct densities differ by at least 1/(n*(n-1)); with float
         weights we settle for a tight relative tolerance and trust the
         exact recomputation of candidates. *)
      let granularity =
        match weights with
        | None -> 1.0 /. ((float_of_int n *. float_of_int n) +. 1.0)
        | Some _ -> 1e-9 *. !hi
      in
      let iterations = ref 0 in
      while !hi -. !lo > granularity && !iterations < 200 do
        incr iterations;
        let g = (!lo +. !hi) /. 2.0 in
        match probe net ~weights ~bonuses ~n ~deg ~big g with
        | subset, true when subset <> [] ->
            let d = exact subset in
            if d > !best_density then begin
              best := subset;
              best_density := d
            end;
            (* The witness's exact density certifies everything up to
               [d] as feasible, which skips many probes when the
               witness is far denser than the guess. *)
            lo := Float.max g d
        | _ -> hi := g
      done;
      Some (!best, !best_density)

let brute_force ?weights ?bonuses ~n ~edges () =
  validate ?weights ?bonuses ~n ~edges ();
  if n > 20 then invalid_arg "Densest.brute_force: n > 20";
  let no_gain =
    edges = []
    && match bonuses with
       | None -> true
       | Some b -> Array.for_all (fun x -> x = 0.0) b
  in
  if no_gain then None
  else begin
  let best = ref [] and best_density = ref neg_infinity in
  for mask = 1 to (1 lsl n) - 1 do
    let subset = ref [] in
    for v = n - 1 downto 0 do
      if mask land (1 lsl v) <> 0 then subset := v :: !subset
    done;
    let d = density_of ?weights ?bonuses ~edges !subset in
    if d > !best_density then begin
      best := !subset;
      best_density := d
    end
  done;
  if !best = [] then None else Some (!best, !best_density)
  end
