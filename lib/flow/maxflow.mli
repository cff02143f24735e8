(** Dinic's maximum-flow algorithm on float capacities.

    Used by {!Densest} to solve the maximal-density problem that the
    paper's Section 4 relies on ("this is the maximal density problem,
    that can be solved in polynomial time using flow techniques
    [36]"). Capacities are floats; a small epsilon guards residual
    tests, which is sound here because {!Densest} re-checks candidate
    answers exactly.

    The network is flat: arcs live in int arrays and capacities in a
    [Float.Array], grouped per node (CSR), with no record per arc. It
    is built in two steps. {!add_edge} appends edges; the first
    {!max_flow}, {!min_cut_side}, {!reset} or {!set_cap} lays the arcs
    out and fixes the network. From then on a solve allocates nothing
    but {!min_cut_side}'s result, so one network can be reset and
    solved many times with different capacities.

    Each node's arcs are kept in the order their edges were added, and
    the search visits them in that order. A network rebuilt edge by
    edge and a network reset to the same capacities therefore give the
    bit-identical flow and cut. *)

type t

val create : int -> t
(** [create n] makes an empty network with nodes [0 .. n-1]. *)

val add_edge : t -> src:int -> dst:int -> cap:float -> unit
(** Adds a directed edge with the given capacity (and a reverse edge
    of capacity 0). Edges are numbered [0, 1, ...] in the order they
    are added; {!set_cap} takes that number. Raises [Invalid_argument]
    on a negative capacity, a node out of range, or once the network
    has been fixed by a solve. *)

val max_flow : t -> s:int -> t:int -> float
(** Computes the max flow; mutates the network's residual
    capacities. Raises [Invalid_argument] when [s = t]. *)

val min_cut_side : t -> s:int -> bool array
(** After {!max_flow}, the set of nodes reachable from [s] in the
    residual network (the source side of a minimum cut). *)

val reset : t -> unit
(** Restores every residual capacity to the one given to {!add_edge},
    undoing all flow and every {!set_cap}. *)

val set_cap : t -> int -> float -> unit
(** [set_cap t k cap] overwrites the residual capacity of edge [k] (its
    number in {!add_edge} order) with [cap]; the reverse arc is left as
    it is. Meant right after {!reset}, to solve the same network with
    new capacities. Raises [Invalid_argument] on a negative capacity or
    an unknown edge. *)
