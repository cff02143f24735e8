(** Incremental 2-spanner repair under batched edge churn.

    Maintains a graph together with a valid stretch-2 spanner across
    {!Grapho.Ugraph.Delta} updates, re-running the Section 4 LOCAL
    protocol only on the {e dirty ball} around the update instead of
    the whole graph:

    + the delta is spliced into the graph's CSR
      ({!Grapho.Ugraph.apply_delta}: untouched rows copied, touched
      rows merged with their sorted changes);
    + a certificate sweep probes every updated-graph edge incident to
      an update endpoint against the surviving spanner — the
      maintained spanner CSR with its deleted edges filtered out on
      the fly. A locality lemma (proved in the implementation header)
      shows these are the only edges whose stretch-2 certificate can
      have broken, so the sweep is exact — clean regions are pruned
      without being visited;
    + the dirty ball [D] — broken edges' endpoints plus all their
      common surviving-graph neighbors — is repaired by
      {!Two_spanner_local.run}[ ~active:D] on the induced subgraph.
      Coverage is monotone in the edge set, so the surviving spanner
      plus the repair stays valid everywhere;
    + the tick's spanner diff — the deleted edges that were spanner
      edges, plus the repair edges not already present — is spliced
      into the spanner CSR once and applied to the {!spanner} set
      view with [O(|diff| log |S|)] removes and adds.

    The repaired spanner is generally {e not} the spanner a full
    recompute would produce (the protocol sees a different
    subproblem), but it is a valid 2-spanner of the updated graph
    after every tick, and the whole pipeline is deterministic in
    [(seed, initial graph, delta sequence)] — bit-identical across
    engine schedulers and [par] values, like the protocol itself.
    Per-tick cost scales with the churn footprint (seed degrees plus
    dirty-ball size), not with [n]; the churn bench measures the
    resulting speedup against full recompute. *)

open Grapho

type t
(** Mutable repair state: current graph, current spanner (as a CSR
    and as a set), tick counter, plus reused workspaces (the spanner
    diff's delta, mark bytes, seed/dirty vertex buffers) so
    steady-state ticks do not grow the heap. *)

type tick_stats = {
  tick : int;  (** 1-based tick this record describes *)
  deleted : int;  (** edges removed by the delta *)
  inserted : int;  (** edges added by the delta *)
  seeds : int;  (** distinct endpoints of changed edges *)
  candidates : int;  (** seed-incident edges certificate-probed *)
  broken : int;  (** of those, how many had lost their certificate *)
  dirty : int;  (** dirty-ball size |D| (0 when nothing broke) *)
  repair_rounds : int;  (** engine rounds of the ball-local re-run *)
  repair_iterations : int;  (** protocol iterations of the re-run *)
  spanner_size : int;  (** |S| after the tick *)
}

val create : ?seed:int -> spanner:Edge.Set.t -> Ugraph.t -> t
(** Wrap an existing graph and a valid 2-spanner of it (validity is
    the caller's obligation — typically the output of a full
    protocol run). [seed] keys the repair runs' vote randomness. *)

val bootstrap :
  ?seed:int ->
  ?sched:Distsim.Engine.sched ->
  ?par:int ->
  ?trace:Distsim.Trace.sink ->
  Ugraph.t ->
  t * Two_spanner_local.result
(** Run the full protocol once and wrap its output — the
    tick-0 baseline of the churn bench. [trace] observes the
    bootstrap run's engine events (the daemon's SUBSCRIBE hook). *)

val apply :
  ?sched:Distsim.Engine.sched ->
  ?par:int ->
  ?adversary:Distsim.Adversary.t ->
  ?retry:int ->
  ?trace:Distsim.Trace.sink ->
  t ->
  Ugraph.Delta.t ->
  tick_stats
(** One churn tick: apply the delta, find the broken certificates,
    repair the dirty ball, advance the tick counter. A rejected
    delta ({!Grapho.Ugraph.apply_delta}'s [Invalid_argument]) leaves
    the state untouched. [sched]/[par] configure the repair run's
    engine exactly as in {!Two_spanner_local.run}; the resulting
    spanner is bit-identical across all of them. [adversary]/[retry]
    subject the ball-local re-run to a fault schedule (churn + drops
    simultaneously — the PR 5 composition): the adversary's fraction
    crashes resolve over the full-graph [n] and its coin stream is
    consulted in merge order, so faulted ticks remain bit-identical
    across schedulers and [par] values too. Note that under crashes
    the repair run can terminate without covering every dirty edge —
    {!valid} is the caller's verdict, exactly as in the resilience
    harness. [trace] observes the repair run's engine events; ticks
    that break nothing emit no events. *)

val graph : t -> Ugraph.t
(** The current (post-latest-tick) graph. *)

val spanner : t -> Edge.Set.t
(** The maintained spanner of {!graph}, O(1). *)

val spanner_csr : t -> Ugraph.t
(** The same spanner as its own CSR graph on {!graph}'s vertex set,
    O(1) — the index the daemon's QUERY BFS and {!valid} read. *)

val tick : t -> int
(** Ticks applied so far. *)

val valid : t -> bool
(** [Spanner_check.is_2_spanner_csr (graph t) (spanner_csr t)] — a
    full, independent O(n + m) verdict, the per-tick check the churn
    bench and the daemon record. *)

val churn : rng:Rng.t -> replace:int -> Ugraph.t -> Ugraph.Delta.t -> unit
(** [churn ~rng ~replace g d] resets [d] and fills it with [replace]
    uniform deletions of existing edges of [g] (capped at [m]) plus
    [replace] uniform insertions of absent non-loop edges, all drawn
    from [rng] — the seeded churn traces of the bench and tests.
    Raises [Invalid_argument] if the graph is too dense to place the
    insertions. *)
