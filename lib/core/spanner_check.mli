(** Validity checkers for all spanner variants of the paper.

    Following Section 1.5: an edge [{u,v}] is covered by an edge set
    [S] if [S] contains a path of length at most [k] between [u] and
    [v]; a k-spanner of [G] covers every edge of [G]; a k-spanner of a
    subgraph [G' ⊆ G] is a subset of [G]'s edges covering every edge
    of [G']. For directed graphs the path must be directed from [u]
    to [v]. *)

open Grapho

val covers_edge : n:int -> Edge.Set.t -> k:int -> Edge.t -> bool
(** [covers_edge ~n s ~k e]: does [s] contain a path of length ≤ [k]
    between the endpoints of [e]? *)

val uncovered_edges : Ugraph.t -> Edge.Set.t -> k:int -> Edge.t list
(** Edges of the graph not covered by the candidate spanner. *)

val is_spanner : Ugraph.t -> Edge.Set.t -> k:int -> bool
(** [is_spanner g s ~k]: [s] covers every edge of [g]. [s] must be a
    subset of [g]'s edges (checked). *)

val is_spanner_of_targets :
  n:int -> targets:Edge.Set.t -> Edge.Set.t -> k:int -> bool
(** Client-server / partial form: does the edge set cover every edge
    of [targets]? *)

val spanner_csr : n:int -> Edge.Set.t -> Ugraph.t
(** The candidate set as its own CSR graph — the index
    {!covers_edge_2} probes. Build it once per candidate set, then
    each certificate check is one sorted-row merge. *)

val covers_edge_2 : spanner_csr:Ugraph.t -> int -> int -> bool
(** Stretch-2 certificate against a prebuilt {!spanner_csr}: the edge
    itself or one common neighbor inside the candidate set.
    O(deg u + deg v) in the candidate CSR, allocation-free —
    equivalent to [covers_edge ~k:2] but usable per-tick at the
    10^5/10^6 churn anchors where the BFS checker's O(n) scratch per
    edge is infeasible. *)

val is_2_spanner_csr : Ugraph.t -> Ugraph.t -> bool
(** [is_2_spanner_csr g sg]: is the candidate CSR [sg] a 2-spanner of
    [g]? Equivalent to [is_spanner g s ~k:2] for [sg = spanner_csr s],
    including the subset check: an [sg] edge outside [g] (or a vertex
    count mismatch) raises [Invalid_argument]. One row merge per
    vertex ({!Grapho.Ugraph.iter_edges_outside}) proves [sg ⊆ g] and
    skips the spanner's own edges; each remaining edge pays one
    common-neighbour probe in [sg]. O(n + m + Σ merge),
    allocation-free. The churn path's every-tick verdict. *)

val is_2_spanner_fast : Ugraph.t -> Edge.Set.t -> bool
(** [is_2_spanner_csr g (spanner_csr ~n:(Ugraph.n g) s)]. The
    equivalence with [is_spanner ~k:2] is pinned by the test suite. *)

type query
(** Reusable BFS scratch for {!query_path} — stamp/parent/queue
    arrays recycled across queries via an epoch counter, so a query
    allocates only its result list. One value per serving thread;
    grows to fit the largest graph it has seen. *)

val query_create : ?n:int -> unit -> query
(** Fresh scratch, pre-sized for graphs of [n] vertices (default 0 —
    it grows on first use). *)

val query_path : query -> Ugraph.t -> u:int -> v:int -> int list option
(** [query_path q sg ~u ~v] is a shortest [u]–[v] path in [sg]
    (typically a resident {!spanner_csr}) as its vertex sequence
    [u; ...; v], or [None] if the two are disconnected in [sg];
    [Some [u]] when [u = v]. One BFS from [u] with early exit at [v],
    deterministic (CSR neighbor order), allocation-free apart from
    the returned list. When [sg] is a valid 2-spanner of a graph with
    edge [{u,v}], the result has at most 2 hops — the daemon's QUERY
    kernel, stretch pinned by the test suite. Raises
    [Invalid_argument] if [u] or [v] is outside [sg]. *)

val directed_covers_edge :
  n:int -> Edge.Directed.Set.t -> k:int -> Edge.Directed.t -> bool

val directed_uncovered_edges :
  Dgraph.t -> Edge.Directed.Set.t -> k:int -> Edge.Directed.t list

val is_directed_spanner : Dgraph.t -> Edge.Directed.Set.t -> k:int -> bool

val stretch : Ugraph.t -> Edge.Set.t -> int
(** Maximum over edges [{u,v}] of [g] of the distance between [u] and
    [v] in the spanner ([max_int] if some edge is not spanned at all).
    A set is a k-spanner iff its stretch is at most [k]. *)

val directed_stretch : Dgraph.t -> Edge.Directed.Set.t -> int
