(** Synchronous round-by-round execution engine.

    A distributed algorithm is a value of type [('state, 'msg) spec].
    Execution follows the standard synchronous model: in every round
    each vertex consumes the messages sent to it in the previous round,
    updates its state, and emits messages to neighbors. Execution stops
    when every vertex has declared termination and no message is in
    flight, or when [max_rounds] is exceeded.

    The engine never lets a vertex observe anything but its own state
    and inbox, so an algorithm that type-checks against [spec] is
    honestly distributed; global knowledge must travel in messages.

    {1 The mailbox API}

    Message plumbing is {e zero-allocation} in the steady state: a
    vertex reads its inbox through a reused {!type:inbox} view (length
    + indexed access + iter/fold over the engine's internal buffer
    bank — no list is ever materialized) and sends by pushing into a
    reused {!type:outbox} via {!emit} instead of returning a list of
    send records. The engine preallocates the inbox banks and outboxes
    once and recycles them every round, so a protocol whose [step]
    itself does not allocate runs without minor-GC traffic; the
    [minor_words]/[allocated_bytes] fields of {!metrics} (and the
    per-round [minor_words] of {!Trace.round_stat}) make that
    measurable. *)

type 'msg inbox
(** Read-only view of the messages a vertex received last round,
    backed by a buffer the engine reuses across rounds. Valid only for
    the duration of the [step] call it is passed to — do not stash it
    in vertex state. Entries appear in ascending source id (sources
    are stepped in ascending order and each appends in turn). *)

type 'msg outbox
(** Push handle for this round's sends, backed by a buffer the engine
    drains and reuses. Valid only for the duration of the [init]/[step]
    call it is passed to. *)

val inbox_length : 'msg inbox -> int
val inbox_src : 'msg inbox -> int -> int
(** [inbox_src ib i] is the sender of the [i]-th message, [0 <= i <
    inbox_length ib]. No bounds check beyond the array's own. *)

val inbox_payload : 'msg inbox -> int -> 'msg
val inbox_iter : (src:int -> 'msg -> unit) -> 'msg inbox -> unit
val inbox_fold : ('a -> src:int -> 'msg -> 'a) -> 'a -> 'msg inbox -> 'a

val emit : 'msg outbox -> dst:int -> 'msg -> unit
(** Queue one message to neighbor [dst]. The engine validates the
    edge, meters the payload and delivers when the emitting vertex's
    step completes (sequential) or at the deterministic merge
    (parallel). *)

(** Constructors and mutators, exposed so the LOCAL→CONGEST compiler
    ({!Chunked}) and the test suites can build views of their own;
    protocol code should never need them. *)

val inbox_create : ?hint:int -> unit -> 'msg inbox
(** [?hint] sizes the first growth of the backing arrays (the engine
    passes each vertex's degree), so a buffer reaches steady-state
    capacity in one allocation instead of a doubling chain. *)

val inbox_clear : 'msg inbox -> unit
val inbox_push : 'msg inbox -> src:int -> 'msg -> unit

val outbox_create : ?hint:int -> unit -> 'msg outbox
val outbox_clear : 'msg outbox -> unit
val outbox_length : 'msg outbox -> int
val outbox_iter : (dst:int -> 'msg -> unit) -> 'msg outbox -> unit

val outbox_dst : 'msg outbox -> int -> int
(** [outbox_dst ob i] is the destination of the [i]-th queued message,
    [0 <= i < outbox_length ob]. Indexed reads stay valid across
    subsequent {!emit}s (growth copies), which is what lets the
    retransmit wrapper ({!Faults.with_retry}) re-emit a step's own
    sends while iterating them. *)

val outbox_payload : 'msg outbox -> int -> 'msg

val inbox_keep_first_per_src : 'msg inbox -> unit
(** In-place dedup keeping the {e first} message of every source —
    the receive side of the retransmit wrapper: retransmitted copies
    and adversarial [Duplicate]s arrive as extra entries sharing a
    [src]. Only meaningful for protocols that send at most one message
    per (src, dst) per round (every protocol in this repository).
    Quadratic in the inbox length (degree-bounded); allocates
    nothing. *)

type metrics = {
  rounds : int;  (** rounds executed *)
  messages : int;  (** total messages delivered *)
  total_bits : int;
  max_message_bits : int;
  congest_violations : int;
      (** messages exceeding the CONGEST bandwidth (0 under LOCAL) *)
  steps : int;
      (** total vertex activations: the [n] inits plus one per
          [spec.step] invocation. Under [`Naive] this is exactly
          [n * (rounds + 1)] on a fault-free run (crash-stopped
          vertices are no longer stepped); under [`Active] it is the
          work the event-driven scheduler actually did, so the
          difference is the scheduler's saving, now a first-class
          number. *)
  dropped : int;
      (** messages the adversary destroyed (random drop, crashed
          endpoint, or cut link). Dropped messages still count in
          [messages]/[total_bits] — they were sent, they just never
          arrived. 0 when no adversary is installed. *)
  crashed : int;
      (** vertices crash-stopped over the run. 0 without adversary. *)
  sent_physical : int;
      (** wire messages actually charged. Equal to [messages] on a
          plain run; under [run ?frugal] it counts the reduced
          physical stream — data sends, 2-bit silence markers, tree
          publishes and aggregated per-receiver collects — while
          [messages] keeps counting the logical layer. Exact and
          deterministic (an integer, not a histogram summary), so A/B
          gates can compare it with [=]. *)
  sent_bits : int;
      (** total wire bits actually charged; equal to [total_bits] on a
          plain run. Deterministic, like [sent_physical]. *)
  minor_words : float;
      (** [Gc.minor_words] delta over the run, measured on the calling
          domain. Under [par > 1] the pool domains' own allocations
          are not included (each domain has its own minor heap), so
          this is the {e coordination} cost; under [par = 1] it is the
          whole simulation's minor-heap traffic. Not deterministic
          across schedulers/domains — excluded from the determinism
          contract, see {!metrics_deterministic_eq}. *)
  allocated_bytes : float;
      (** Conservative lower bound on bytes allocated over the run
          (calling domain): the max of the [Gc.allocated_bytes] delta
          (which also sees direct major-heap allocations but only
          advances at minor-heap flushes) and the byte equivalent of
          the precise [minor_words] delta. Same caveats as
          [minor_words]. *)
}

val metrics_deterministic_eq : metrics -> metrics -> bool
(** Equality on the deterministic projection of {!metrics} — every
    field except the GC-pressure floats ([minor_words],
    [allocated_bytes]), which legitimately vary across schedulers,
    domain counts and runs. This is the equality the determinism
    contract (seq vs [par], [`Active] vs [`Naive]) is stated in. *)

val metrics_logical_eq : metrics -> metrics -> bool
(** {!metrics_deterministic_eq} minus the physical stream
    ([sent_physical], [sent_bits]): the projection a [?frugal] run
    keeps bit-identical to a plain run of the same spec. The frugal
    A/B gates are stated in this equality. *)

type sched = [ `Active | `Naive ]
(** Scheduling strategy. [`Active] (the default) is event-driven: a
    vertex is stepped in a round only if it has pending inbox messages
    or has not signalled [`Done]; inboxes are insertion-ordered
    reusable buffers exposed directly as the {!type:inbox} view, so the
    steady state neither sorts, copies nor allocates. It is
    observationally identical to [`Naive] for algorithms that are
    {e quiescent when done}: once a vertex returns [`Done], stepping
    it on an empty inbox must leave its state unchanged, emit nothing
    and return [`Done] again (a woken vertex may of course resume with
    [`Continue]). [`Naive] steps every vertex every round on
    per-round rebuilt-and-sorted list inboxes; it shares the engine's
    round loop and is kept as the reference for differential testing
    ([test/test_engine_sched.ml]). *)

type ('state, 'msg) spec = {
  init :
    n:int -> vertex:int -> neighbors:int array -> out:'msg outbox ->
    'state;
      (** Round 0: initial state; first sends go through [out].
          Vertices know [n] (or a polynomial bound on it) and the
          identifiers of their neighbors, per the paper's input
          convention. *)
  step :
    round:int -> vertex:int -> 'state -> 'msg inbox -> out:'msg outbox ->
    'state * [ `Continue | `Done ];
      (** One round: current state and inbox view (entries sorted by
          source) to new state and halting flag; sends go through
          [out]. A vertex that returned [`Done] keeps being stepped
          (it may serve as a relay) and may return to [`Continue].
          The inbox and outbox are only valid during the call. *)
  measure : 'msg -> int;  (** wire size of a payload, in bits *)
}

exception Congest_violation of { src : int; dst : int; bits : int }

val run :
  ?max_rounds:int ->
  ?strict:bool ->
  ?trace:Trace.sink ->
  ?sched:sched ->
  ?par:int ->
  ?adversary:Adversary.t ->
  ?profile:Profile.t ->
  ?frugal:Frugal.t ->
  ?active:int array ->
  model:Model.t ->
  graph:Grapho.Ugraph.t ->
  ('state, 'msg) spec ->
  'state array * metrics
(** Runs the algorithm on the given topology. [trace] (default
    {!Trace.null}, which costs nothing) receives the structured event
    stream: [Round_begin]/[Round_end] around every round (round 0 is
    initialization) with per-round message counts, bit volumes,
    stepped-vertex counts, wall-clock time and minor-words allocated,
    plus one [Send] per wire message when the sink wants them (the
    two-party simulation harness meters the Alice/Bob cut with such a
    {!Trace.custom} sink). [strict] (default [false]) raises {!Congest_violation} on the
    first oversized message instead of merely counting it. [sched]
    picks the scheduling strategy (default [`Active]). Sending to a
    non-neighbor raises [Invalid_argument]. [max_rounds] defaults to
    [50 * (n + 5)]. Raises [Failure] if the round limit is hit before
    global termination.

    [par] (default 1) is the number of domains used to step each
    round under [`Active]: the vertex range is partitioned into
    contiguous shards, shards are stepped concurrently on a persistent
    {!Pool}, each shard appending its sends to a per-shard outbox plus
    a [(vertex, count)] segment index, and a serial merge then replays
    every side effect — message delivery, metric updates, congestion
    checks, trace [Send] events — in ascending vertex id, i.e. in
    exactly the sequential order. The result (states, spanner outputs,
    all deterministic metrics including [steps], and the full trace
    event stream) is therefore {e bit-identical} to [par = 1] for any
    value of [par] — GC-pressure fields excepted, see
    {!metrics_deterministic_eq} — as checked by
    [test/test_engine_sched.ml]. Requirements on the spec under
    [par > 1]: [step] must touch no mutable state shared between
    vertices (per-vertex state records and per-vertex RNG streams are
    fine; every spec in this repository qualifies — see the randomness
    notes in the protocol modules). Trace sinks need no
    synchronization: all emission happens on the calling domain.
    Error-path caveat: under [par > 1], strict {!Congest_violation}
    and non-neighbor [Invalid_argument] are raised at merge time,
    after the full round has been stepped. [round 0] (initialization)
    always runs sequentially. [`Naive] ignores [par]: it is the
    single-domain reference the parallel path is tested against.

    [adversary] (default none) installs a deterministic fault
    injector (see {!Adversary} and the {!Faults} DSL). The engine
    calls {!Adversary.reset} before round 0, activates the faults
    scheduled at each round on the calling domain {e before} any
    stepping (a crash-stopped vertex loses its pending inbox, is
    flagged done, and never steps again — deliveries to it are
    dropped), and consults the adversary once per wire message in
    delivery order — which is the sequential vertex order under every
    scheduler and shard count, so a faulted run is {e bit-identical}
    across seq/[par]/[`Naive] exactly like a fault-free one. Dropped
    messages are metered as sent but not delivered ([dropped] in
    {!metrics} and {!Trace.round_stat}); duplicated messages are
    metered twice. An adversary with an empty schedule
    ({!Adversary.has_faults}[ = false]) is normalized away, so it is
    byte-identical to passing no adversary at all.

    [profile] (default none) installs a wall-clock {!Profile}: round
    spans and a round-time histogram, every metered message's payload
    bits, every stepped vertex's inbox size, and — under [par > 1] —
    per-shard stepping spans plus the serial-merge span of each
    round. Purely observational: the simulated execution is
    bit-identical with and without it, and identical across
    schedulers and shard counts with it (only clock-valued profile
    fields differ, like [round_stat.elapsed_ns]). All profile
    aggregation happens on the calling thread; shards only stamp
    their own clocks and private histograms into disjoint slots.
    When absent the engine takes the exact pre-profiling path: no
    clock reads beyond tracing's, no allocation.

    [frugal] (default none) switches on message-frugal {e physical}
    accounting (see {!Frugal}): full-neighborhood broadcasts are
    charged as one collection-tree publish plus one aggregated
    collect per reached receiver per round, and consecutive identical
    point-to-point sends are silenced by per-edge memoization (2-bit
    [Again]/[Eps] markers bracket each silence; a run of [k]
    identical [b]-bit sends costs 3 physical messages and [b + 4]
    bits). The {e logical} execution is untouched — deliveries, the
    step schedule, the adversary coin stream (consulted once per
    logical message, exactly as plain), [messages]/[total_bits], the
    round series and the final states are bit-identical with and
    without it, under every scheduler, shard count and fault
    schedule ({!metrics_logical_eq}). What changes: [sent_physical]/
    [sent_bits] meter the reduced stream, [Trace.round_stat.physical]
    carries its per-round counts, and [Send] events plus the
    profile's bits histogram describe physical traffic (an
    aggregated collect appears as [src = -1]). Under an adversary the
    collection trees disengage (silence suppression stays active, at
    full charge for faulted copies), so drops always apply to
    messages that were physically charged. The value must have been
    built for the same graph ([Invalid_argument] otherwise).

    [active] (default: every vertex) restricts the simulation to a
    {e sparse activation set}: only the listed vertices are
    initialized and stepped, and the run is observationally the
    protocol executed on the induced subgraph [g[active]] — each
    active vertex sees only its active neighbors in [~neighbors], but
    keeps its {e global} id in [~vertex] (so identifier-keyed
    randomness and outputs stay aligned with the full graph). This is
    the repair primitive of the churn path ({!Incremental}): re-run
    the protocol on a dirty ball whose size tracks the churn
    footprint, paying per-round cost proportional to the ball, not
    [n]. The array must be strictly ascending with entries in
    [0, n) ([Invalid_argument] otherwise). The returned state array
    has length [Array.length active], with slot [i] holding the final
    state of vertex [active.(i)]. Frozen (non-active) vertices
    receive nothing; a send addressed to one raises
    [Invalid_argument] — the spec must be run on a set closed enough
    that no active vertex messages outside it, which {!Incremental}
    guarantees by including every neighbor a dirty vertex can
    address. Determinism is preserved: active slots are stepped (and
    merged, under [par]) in ascending vertex order, so seq/[par]/
    [`Naive] runs remain bit-identical exactly as in the dense case.
    [max_rounds] defaults to [50 * (|active| + 5)]. Composes with
    [?adversary]: the coin stream is consulted once per delivered
    message in merge order exactly as on a dense run, fraction
    crashes resolve over the full-graph [n], and a crash scheduled at
    a frozen vertex is a no-op on engine state (the vertex was never
    running) — so faulted sparse runs stay bit-identical across
    schedulers and shard counts. Incompatible with [?frugal] (it keys
    per-edge suppression machines on the full graph): passing it
    together with [active] raises [Invalid_argument]. *)
