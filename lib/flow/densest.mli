(** Maximum-density subgraph (Goldberg 1984), via parametric max-flow.

    Given a graph on nodes [0..n-1] with edge multiset [E], positive
    node weights [w] and non-negative node bonuses [b], find a
    non-empty [S] maximizing [(|E(S)| + b(S)) / w(S)] where [E(S)] are
    the edges with both endpoints in [S]. With unit weights and zero
    bonuses this is Goldberg's classic maximum density subgraph; the
    weights are needed for the paper's weighted 2-spanner stars
    (Section 4.3.2) and the bonuses account there for target edges
    covered "for free" through weight-zero star edges.

    This is the workhorse behind densest-star computation: for a
    vertex [v] of the input graph, the densest [v]-star with respect
    to a set [H] of uncovered edges is exactly the densest subgraph of
    the graph whose nodes are [v]'s neighbors and whose edges are the
    edges of [H] joining two neighbors (each chosen neighbor
    contributes its star edge, each induced [H]-edge is 2-spanned).

    Instances with at most 12 nodes and no duplicate edge are solved by
    exhaustive subset enumeration. Larger ones bisect on the density
    guess [g], probing Goldberg's network once per step. The network
    ({!Maxflow}) is built once per call: node [v]'s arcs s->v and v->t
    come first, then both directions of each edge in [edges] order.
    Each probe resets its capacities and rewrites only the [n] sink
    capacities, which are the ones that depend on [g]. Everything the
    search computes from (arc order, Dinic's visiting order, the
    bisection, the feasibility test, the exact density of each witness)
    is what a network built afresh per probe gives, so the answers are
    bit-identical to that construction. The network is local to the
    call: the oracle runs on pool domains under [Engine.run ~par] and
    shares no mutable scratch between calls. *)

val solver_calls : int ref
(** Cumulative count of {!densest_subset} invocations in this process.
    Cheap instrumentation for the bench harness ([bench/main.exe
    --json] reports it per workload); not meaningful across threads. *)

val probes : int ref
(** Cumulative count of parametric max-flow probes (one per bisection
    step of the flow path; the exhaustive small-[n] path makes none).
    Same caveat as {!solver_calls}: exact only for sequential runs. *)

val densest_subset :
  ?weights:float array ->
  ?bonuses:float array ->
  n:int ->
  edges:(int * int) list ->
  unit ->
  (int list * float) option
(** [densest_subset ~n ~edges ()] returns a maximizing subset (sorted)
    and its density, or [None] when the instance has no positive-
    density subset ([edges] empty and all bonuses zero). With unit
    weights the result is exactly optimal; with arbitrary float
    weights it is optimal up to a relative parametric-search tolerance
    of 1e-9, and the returned density is recomputed exactly from the
    returned subset. Node weights must be positive, bonuses
    non-negative. *)

val density_of :
  ?weights:float array ->
  ?bonuses:float array ->
  edges:(int * int) list ->
  int list ->
  float
(** Exact density of a given subset. *)

val brute_force :
  ?weights:float array ->
  ?bonuses:float array ->
  n:int ->
  edges:(int * int) list ->
  unit ->
  (int list * float) option
(** Exponential reference implementation for tests; [n <= 20]. *)
