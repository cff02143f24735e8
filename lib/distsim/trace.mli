(** Structured execution traces for the round engine.

    The paper's claims are per-round claims — [O(log n log Δ)] rounds
    w.h.p. for the LOCAL 2-spanner (Thm 1.3) and the CONGEST MDS
    (Thm 5.1), and [Ω(√n/(√α log n))] bits across the Alice/Bob cut
    for the lower bounds — so the engine can narrate an execution as a
    stream of structured events instead of five scalar counters:

    - {!constructor:Round_begin} / {!constructor:Round_end} bracket
      every engine round; [Round_end] carries the per-round message
      count, bit volume, largest message, vertices stepped (the
      event-driven scheduler's work), vertices done, CONGEST
      violations and wall-clock nanoseconds;
    - {!constructor:Send} is one message on the wire (optionally
      filtered to a vertex set to bound overhead);
    - {!constructor:Phase} marks a protocol phase (e.g. [candidate],
      [vote], [commit]) at a vertex;
    - {!constructor:Counter} is a named numeric sample (e.g. the
      number of still-uncovered targets entering an iteration).

    Events flow into a {!sink}. Sinks are pay-for-what-you-use:
    {!null} is free (the engine detects it and skips all event
    construction), {!stats} accumulates an in-memory per-round
    {!series}, {!jsonl} streams JSON Lines to a channel, {!tee}
    duplicates, and {!custom} wraps any callback (the two-party
    harness meters its cut with a [Send]-only one). *)

type round_stat = {
  round : int;
  messages : int;  (** messages sent during this round *)
  bits : int;  (** their total wire size *)
  max_bits : int;  (** largest single message this round (0 if none) *)
  vertices_stepped : int;
      (** vertices activated this round — [n] every round under the
          naive scheduler; only the awake set under the active one *)
  vertices_done : int;  (** vertices flagged [`Done] after the round *)
  congest_violations : int;  (** oversized messages this round *)
  dropped : int;
      (** messages the adversary destroyed this round (always 0 on a
          fault-free run). Dropped messages still count in [messages]
          and [bits]: they were sent — they just never arrived. *)
  crashed : int;
      (** vertices crash-stopped after the round, cumulatively (like
          [vertices_done]); 0 on a fault-free run *)
  elapsed_ns : int;  (** wall-clock nanoseconds spent in the round *)
  minor_words : int;
      (** minor-heap words allocated during the round on the engine's
          calling domain ([Gc.minor_words] delta — under [par > 1] the
          pool domains' own allocations are not included). Like
          [elapsed_ns] this is a measurement of the simulator, not the
          simulated protocol, so it is nondeterministic and excluded
          from the cross-scheduler equality contracts. *)
  physical : int;
      (** wire messages actually charged this round. Equal to
          [messages] on a plain run; under [Engine.run ?frugal] it
          counts the reduced physical stream (tree publishes,
          aggregated collects, data sends and 2-bit silence markers)
          while [messages]/[bits] keep describing the logical layer,
          so plain-vs-frugal round series stay comparable column by
          column. Deterministic, like [messages]. *)
}
(** One row of the per-round series. Round 0 is initialization: every
    vertex runs [init], so [vertices_stepped = n] there. Summing
    [messages] (resp. [bits]) over a run's [Round_end] events
    reconciles exactly with [Engine.metrics.messages] (resp.
    [total_bits]); summing [vertices_stepped] gives
    [Engine.metrics.steps]. *)

type drop_reason =
  | Dropped_random  (** lost to the per-message drop probability *)
  | Dropped_crashed  (** an endpoint had crash-stopped *)
  | Dropped_cut  (** the link was cut when the message crossed it *)

type fault_kind =
  | Crash of int  (** vertex crash-stops at the start of the round *)
  | Cut of int * int  (** link goes down at the start of the round *)
  | Restore of int * int  (** a transient cut comes back up *)

type event =
  | Round_begin of int
  | Round_end of round_stat
  | Send of { src : int; dst : int; bits : int; round : int }
  | Phase of { vertex : int; name : string; round : int }
      (** protocol-defined phase marker; [vertex = -1] means a global
          (whole-network) phase. For protocols compiled through
          [Chunked], [round] is the inner virtual round. *)
  | Counter of { name : string; value : float; round : int }
  | Fault_injected of { round : int; kind : fault_kind }
      (** the adversary activated a scheduled fault at the start of
          [round] (emitted on the engine's merge thread, so fault
          streams are identical across schedulers and shard counts) *)
  | Message_dropped of {
      src : int;
      dst : int;
      round : int;
      reason : drop_reason;
    }
      (** one destroyed wire message. Send-class: only emitted when the
          sink {!wants_sends}, like {!constructor:Send}; the per-round
          [dropped] counter of {!round_stat} is maintained engine-side
          and does not require these events. *)

type sink

val null : sink
(** The zero-cost sink: emitting to it is a no-op, and the engine
    skips event construction entirely when it detects it. *)

val is_null : sink -> bool

val wants_sends : sink -> bool
(** Whether the sink cares about per-message {!constructor:Send}
    events. The engine consults this once per run and skips the
    per-message event construction when [false] (the {!stats} sink,
    for instance, only needs round aggregates). *)

val emit : sink -> event -> unit

val custom : ?sends:bool -> (event -> unit) -> sink
(** An arbitrary callback sink. [sends] (default [true]) declares
    whether it wants {!constructor:Send} events. *)

val tee : sink -> sink -> sink
(** Duplicates every event into both sinks. [tee null s == s]. *)

val with_round_phases : (int -> (string * int) option) -> sink -> sink
(** [with_round_phases f sink] forwards every event to [sink] and,
    immediately after forwarding [Round_begin r], consults [f r]; when
    it answers [Some (name, round)] a global phase marker
    [Phase { vertex = -1; name; round }] is emitted ([round] lets
    chunked protocols stamp the {e virtual} round). This is how the
    protocols mark their phase schedule: the marker derives from the
    engine round on the merge thread, never from inside [spec.step],
    so phase emission is race-free under the parallel stepping path
    and identical across schedulers and shard counts.
    [with_round_phases f null == null]. *)

(** {1 In-memory per-round statistics} *)

type series = {
  rounds : round_stat array;  (** one row per round, in order, from 0 *)
  phases : (string * int) list;
      (** phase-marker name → occurrence count, sorted by name *)
  counters : (string * float) list;
      (** counter name → (sum, via {!constructor:Counter}), sorted *)
}

type stats

val stats : unit -> stats
val stats_sink : stats -> sink
(** Accumulates [Round_end], [Phase] and [Counter] events; ignores
    [Send]s (and reports [wants_sends = false]). *)

val series : stats -> series

(** {1 Streaming JSONL export} *)

val jsonl :
  ?sends:bool ->
  ?send_filter:(src:int -> dst:int -> bool) ->
  out_channel ->
  sink
(** Writes one JSON object per event, one per line, in the format of
    {!event_to_json}. [sends] (default [true]) includes per-message
    [Send] events; [send_filter] keeps only matching sends (to bound
    trace size on dense runs). The channel is not closed by the sink;
    callers flush/close it. *)

(** {1 JSON codec} *)

val event_to_json : event -> string
(** One-line JSON object, e.g.
    [{"ev":"round_end","round":3,"messages":12,"bits":480,"max_bits":40,"stepped":7,"done":2,"violations":0,"ns":8125,"minor_words":96}]. *)

val event_of_json : string -> (event, string) result
(** Parses exactly the output of {!event_to_json} (a flat JSON object
    with string and number values); [Error] describes the first
    offending token. String values may use [\uXXXX] escapes
    (including UTF-16 surrogate pairs), decoded to UTF-8 bytes. *)

(** {2 Codec building blocks}

    The flat-object codec underneath {!event_to_json} /
    {!event_of_json}, exposed for other emitters of the same dialect
    (the profiler's Chrome [trace_event] exporter, the bench
    trajectory differ's validators): flat JSON objects whose values
    are strings or numbers only. *)

type json_value = Jstr of string | Jnum of float

val parse_flat_json : string -> ((string * json_value) list, string) result
(** Parses one flat JSON object (no nesting, string/number values),
    preserving field order. *)

val escape_into : Buffer.t -> string -> unit
(** Appends [s] JSON-escaped (quotes, backslashes, control
    characters; non-ASCII bytes pass through verbatim as UTF-8). *)

val json_float : float -> string
(** Renders a float the way the codec does: integral values without
    a fractional part, everything else round-trippable [%.17g]. *)
