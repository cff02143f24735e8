(* ------------------------------------------------------------------ *)
(* The mailbox API: reused inbox views and outbox push handles.

   Both sides are growable parallel arrays (an [int array] of endpoints
   next to a ['msg array] of payloads) so that neither delivery nor
   reading materializes tuples, cons cells or send records. Growth
   seeds the fresh payload array with the element being pushed, which
   sidesteps the need for a ['msg] dummy without [Obj.magic]; arrays
   only ever grow, so the steady state of a run allocates nothing in
   the message plumbing. *)

type 'msg inbox = {
  mutable i_src : int array;
  mutable i_msg : 'msg array;
  mutable i_len : int;
  i_hint : int;
      (* First growth jumps straight to this capacity: the engine
         hints each bank buffer with its vertex's degree, so a run
         allocates each buffer once instead of walking a doubling
         chain. *)
}

type 'msg outbox = {
  mutable o_dst : int array;
  mutable o_msg : 'msg array;
  mutable o_len : int;
  o_hint : int;
}

let inbox_create ?(hint = 0) () =
  { i_src = [||]; i_msg = [||]; i_len = 0; i_hint = hint }

let inbox_clear ib = ib.i_len <- 0
let inbox_length ib = ib.i_len
let inbox_src ib i = ib.i_src.(i)
let inbox_payload ib i = ib.i_msg.(i)

let inbox_push ib ~src msg =
  let cap = Array.length ib.i_msg in
  if ib.i_len = cap then begin
    let ncap = max (max 8 ib.i_hint) (2 * cap) in
    let msgs = Array.make ncap msg in
    Array.blit ib.i_msg 0 msgs 0 ib.i_len;
    ib.i_msg <- msgs;
    let srcs = Array.make ncap 0 in
    Array.blit ib.i_src 0 srcs 0 ib.i_len;
    ib.i_src <- srcs
  end;
  ib.i_src.(ib.i_len) <- src;
  ib.i_msg.(ib.i_len) <- msg;
  ib.i_len <- ib.i_len + 1

let inbox_iter f ib =
  for i = 0 to ib.i_len - 1 do
    f ~src:ib.i_src.(i) ib.i_msg.(i)
  done

let inbox_fold f acc ib =
  let acc = ref acc in
  for i = 0 to ib.i_len - 1 do
    acc := f !acc ~src:ib.i_src.(i) ib.i_msg.(i)
  done;
  !acc

let outbox_create ?(hint = 0) () =
  { o_dst = [||]; o_msg = [||]; o_len = 0; o_hint = hint }

let outbox_clear ob = ob.o_len <- 0
let outbox_length ob = ob.o_len

let emit ob ~dst msg =
  let cap = Array.length ob.o_msg in
  if ob.o_len = cap then begin
    let ncap = max (max 8 ob.o_hint) (2 * cap) in
    let msgs = Array.make ncap msg in
    Array.blit ob.o_msg 0 msgs 0 ob.o_len;
    ob.o_msg <- msgs;
    let dsts = Array.make ncap 0 in
    Array.blit ob.o_dst 0 dsts 0 ob.o_len;
    ob.o_dst <- dsts
  end;
  ob.o_dst.(ob.o_len) <- dst;
  ob.o_msg.(ob.o_len) <- msg;
  ob.o_len <- ob.o_len + 1

let outbox_iter f ob =
  for i = 0 to ob.o_len - 1 do
    f ~dst:ob.o_dst.(i) ob.o_msg.(i)
  done

let outbox_dst ob i = ob.o_dst.(i)
let outbox_payload ob i = ob.o_msg.(i)

(* In-place dedup keeping the first message of every source, for the
   retransmit wrapper: duplicates (retransmitted copies, adversarial
   [Duplicate]s) arrive as extra entries sharing a [src], and protocols
   that send at most one message per (src, dst) per round can restore
   their expected inbox shape with this. Quadratic in the inbox length,
   which is degree-bounded; allocates nothing. *)
let inbox_keep_first_per_src ib =
  let len = ib.i_len in
  if len > 1 then begin
    let w = ref 1 in
    for i = 1 to len - 1 do
      let s = ib.i_src.(i) in
      let dup = ref false in
      let j = ref 0 in
      while (not !dup) && !j < !w do
        if ib.i_src.(!j) = s then dup := true;
        incr j
      done;
      if not !dup then begin
        ib.i_src.(!w) <- s;
        ib.i_msg.(!w) <- ib.i_msg.(i);
        incr w
      end
    done;
    ib.i_len <- !w
  end

(* Per-shard [(vertex, send-count)] segment index for the parallel
   merge: shard outboxes are contiguous concatenations of their
   vertices' sends, so the merge replays [cnt] messages per recorded
   vertex at a running offset — no per-vertex lists. *)
type seg = {
  mutable s_v : int array;
  mutable s_cnt : int array;
  mutable s_len : int;
}

let seg_make () = { s_v = [||]; s_cnt = [||]; s_len = 0 }

let seg_push s v c =
  let cap = Array.length s.s_v in
  if s.s_len = cap then begin
    let ncap = max 8 (2 * cap) in
    let nv = Array.make ncap 0 in
    let nc = Array.make ncap 0 in
    Array.blit s.s_v 0 nv 0 s.s_len;
    Array.blit s.s_cnt 0 nc 0 s.s_len;
    s.s_v <- nv;
    s.s_cnt <- nc
  end;
  s.s_v.(s.s_len) <- v;
  s.s_cnt.(s.s_len) <- c;
  s.s_len <- s.s_len + 1

(* ------------------------------------------------------------------ *)

type metrics = {
  rounds : int;
  messages : int;
  total_bits : int;
  max_message_bits : int;
  congest_violations : int;
  steps : int;
  dropped : int;
  crashed : int;
  sent_physical : int;
  sent_bits : int;
  minor_words : float;
  allocated_bytes : float;
}

(* Logical layer only: the fields a frugal run keeps bit-identical to
   a plain run (everything deterministic except the physical stream
   and the GC counters). *)
let metrics_logical_eq a b =
  a.rounds = b.rounds && a.messages = b.messages
  && a.total_bits = b.total_bits
  && a.max_message_bits = b.max_message_bits
  && a.congest_violations = b.congest_violations
  && a.steps = b.steps && a.dropped = b.dropped && a.crashed = b.crashed

let metrics_deterministic_eq a b =
  metrics_logical_eq a b
  && a.sent_physical = b.sent_physical
  && a.sent_bits = b.sent_bits

type sched = [ `Active | `Naive ]

type ('state, 'msg) spec = {
  init :
    n:int -> vertex:int -> neighbors:int array -> out:'msg outbox ->
    'state;
  step :
    round:int -> vertex:int -> 'state -> 'msg inbox -> out:'msg outbox ->
    'state * [ `Continue | `Done ];
  measure : 'msg -> int;
}

exception Congest_violation of { src : int; dst : int; bits : int }


let now_ns = Clock.now_ns

(* The frugal layer's hooks into message accounting: its physical
   charge for a delivered, a duplicated and a dropped logical message
   ([src dst payload bits]), the full-neighborhood broadcast fast path,
   and the end-of-round flush that settles silences and aggregated
   collects. *)
type 'msg frugal_layer = {
  direct : int -> int -> 'msg -> int -> unit;
  duplicated : int -> int -> 'msg -> int -> unit;
  dropped_phys : int -> int -> int -> unit;
  broadcast :
    bandwidth:int option -> int -> int array -> 'msg -> lo:int -> hi:int ->
    unit;
  flush : unit -> unit;
}

(* Message accounting shared by both schedulers, one message at a
   time. [round] is the engine's current-round cell (0 during init),
   read when stamping [Send] events. [take_round] snapshots and resets
   the per-round deltas for a [Round_end] event; it is only called
   when tracing, and the per-round counters are only maintained when
   tracing, so the [Trace.null] path does exactly the work the
   untraced engine did. GC pressure is metered from [Gc] counters on
   the calling domain: run totals always (two float reads at the
   boundaries), per-round deltas only when tracing. [profile], when
   installed, sees every metered message's size; like the trace
   emission this happens on the calling (merge) thread only. *)
let make_accounting ?adversary ?profile ?frugal ~trace ~round ~strict ~graph
    ~measure () =
  let tracing = not (Trace.is_null trace) in
  let wants_sends = Trace.wants_sends trace in
  let frugal_on = frugal <> None in
  let messages = ref 0 in
  let total_bits = ref 0 in
  let max_message_bits = ref 0 in
  let congest_violations = ref 0 in
  let dropped = ref 0 in
  (* The physical stream ([frugal] only; a plain run's physical stream
     {e is} its logical one, copied at [finish] time). *)
  let phys_messages = ref 0 in
  let phys_bits = ref 0 in
  let minor0 = Gc.minor_words () in
  let alloc0 = Gc.allocated_bytes () in
  (* Per-round deltas (tracing only, except [r_dropped] which also
     feeds the per-round [dropped] column and costs nothing when no
     adversary is installed). *)
  let r_messages = ref 0 in
  let r_bits = ref 0 in
  let r_max_bits = ref 0 in
  let r_violations = ref 0 in
  let r_dropped = ref 0 in
  let r_physical = ref 0 in
  let r_minor_base = ref minor0 in
  (* Meter one logical message (it {e was} sent, delivered or not):
     run totals, per-round deltas, congestion check. On a plain run
     this is also the physical stream, so the profile hook and [Send]
     emission live here; under [?frugal] those describe the physical
     stream and move to [charge] below. *)
  let meter ~bandwidth src dst bits =
    if not frugal_on then begin
      (match profile with Some p -> Profile.record_bits p bits | None -> ());
      if tracing && wants_sends then
        Trace.emit trace (Trace.Send { src; dst; bits; round = !round })
    end;
    if tracing then begin
      incr r_messages;
      r_bits := !r_bits + bits;
      if bits > !r_max_bits then r_max_bits := bits
    end;
    incr messages;
    total_bits := !total_bits + bits;
    if bits > !max_message_bits then max_message_bits := bits;
    match bandwidth with
    | Some limit when bits > limit ->
        if strict then raise (Congest_violation { src; dst; bits })
        else begin
          incr congest_violations;
          if tracing then incr r_violations
        end
    | _ -> ()
  in
  (* Meter one physical message (frugal runs only): what would
     actually cross the wire once silences and collection trees are in
     play. [dst = -1] is the receiver side of an aggregated collect;
     tree-internal hops are represented by the publish itself. *)
  let charge src dst bits =
    (match profile with Some p -> Profile.record_bits p bits | None -> ());
    incr phys_messages;
    phys_bits := !phys_bits + bits;
    if tracing then begin
      incr r_physical;
      if wants_sends then
        Trace.emit trace (Trace.Send { src; dst; bits; round = !round })
    end
  in
  let check_edge src dst =
    if not (Grapho.Ugraph.mem_edge graph src dst) then
      invalid_arg
        (Printf.sprintf "Engine: vertex %d sent to non-neighbor %d" src dst)
  in
  let frugal_layer =
    match frugal with
    | None -> None
    | Some fr ->
        if
          not
            (Frugal.graph fr == graph
            || Grapho.Ugraph.equal (Frugal.graph fr) graph)
        then invalid_arg "Engine: ?frugal value built for a different graph";
        (* [Auto] mode: per-edge suppression starts observe-only —
           direct sends are charged at full size (physical = logical
           on those edges) while the repeat statistics accumulate;
           [flush_round] arms or permanently disarms the machine once
           the window closes. All mutation happens on the merge
           thread in delivery order, so the decision — and with it
           the whole physical stream — is deterministic across
           schedulers and shard counts. *)
        let obs_window = Frugal.auto_window fr in
        let suppress_on = ref (obs_window = 0) in
        let auto_decided = ref (obs_window = 0) in
        let obs_repeats = ref 0 in
        let obs_runs = ref 0 in
        let n = Grapho.Ugraph.n graph in
        let m2 = 2 * Grapho.Ugraph.m graph in
        (* Per-directed-edge send memo, keyed by [Ugraph.edge_slot].
           The payload array needs a ['msg] seed, so the whole memo is
           allocated on the first direct (non-broadcast) send — runs
           that only ever broadcast (flood on the million-vertex
           anchors) never pay the 2m words. Flag bits: 1 = silence
           armed, 2 = queued in the sweep stack. *)
        let e_msg = ref [||] in
        let e_round = ref [||] in
        let e_flag = ref Bytes.empty in
        let ensure_edge payload =
          if Array.length !e_round = 0 && m2 > 0 then begin
            e_msg := Array.make m2 payload;
            e_round := Array.make m2 min_int;
            e_flag := Bytes.make m2 '\000'
          end
        in
        (* Sweep stack of directed edges whose silence may need an
           end-of-round Eps marker. *)
        let sw_slot = ref (Array.make 16 0) in
        let sw_src = ref (Array.make 16 0) in
        let sw_dst = ref (Array.make 16 0) in
        let sw_len = ref 0 in
        let sw_push slot src dst =
          let cap = Array.length !sw_slot in
          if !sw_len = cap then begin
            let grow a =
              let na = Array.make (2 * cap) 0 in
              Array.blit !a 0 na 0 cap;
              a := na
            in
            grow sw_slot;
            grow sw_src;
            grow sw_dst
          end;
          !sw_slot.(!sw_len) <- slot;
          !sw_src.(!sw_len) <- src;
          !sw_dst.(!sw_len) <- dst;
          incr sw_len
        in
        let ipush stack len v =
          let cap = Array.length !stack in
          if !len = cap then begin
            let na = Array.make (2 * cap) 0 in
            Array.blit !stack 0 na 0 cap;
            stack := na
          end;
          !stack.(!len) <- v;
          incr len
        in
        (* Per-vertex broadcast memo (same machine, one cell per
           broadcaster) and the per-receiver collect accumulators. *)
        let b_msg = ref [||] in
        let b_round = Array.make (max n 1) min_int in
        let b_flag = Bytes.make (max n 1) '\000' in
        let vw = ref (Array.make 16 0) in
        let vw_len = ref 0 in
        let c_round = Array.make (max n 1) min_int in
        let c_bits = Array.make (max n 1) 0 in
        let cw = ref (Array.make 16 0) in
        let cw_len = ref 0 in
        (* Pointer fast path first; the structural fallback guards
           against payload types [compare] rejects. *)
        let payload_eq a b =
          a == b || (try a = b with Invalid_argument _ -> false)
        in
        let mark_collect w bits =
          if c_round.(w) <> !round then begin
            c_round.(w) <- !round;
            c_bits.(w) <- 2;
            ipush cw cw_len w
          end;
          c_bits.(w) <- c_bits.(w) + bits
        in
        (* The silence state machine for one direct send. Arm on the
           {e second} consecutive identical send (one-shot payloads
           stay at exact parity with the plain stream): fresh data
           costs [bits], the arming repeat costs a 2-bit Again marker,
           further repeats cost nothing, and the round after the run
           ends [flush_round] pays a 2-bit Eps marker. *)
        let direct src dst payload bits =
          ensure_edge payload;
          let slot = Grapho.Ugraph.edge_slot graph src dst in
          let er = !e_round and ef = !e_flag in
          let flag = Char.code (Bytes.unsafe_get ef slot) in
          let repeat =
            Array.unsafe_get er slot = !round - 1
            && payload_eq (Array.unsafe_get !e_msg slot) payload
          in
          if !suppress_on then begin
            if repeat then begin
              if flag land 1 = 1 then Frugal.note_suppressed fr 1
              else begin
                if flag land 2 = 0 then sw_push slot src dst;
                Bytes.unsafe_set ef slot (Char.chr (flag lor 3));
                charge src dst 2;
                Frugal.note_marker fr
              end
            end
            else begin
              if flag land 1 = 1 then
                Bytes.unsafe_set ef slot (Char.chr (flag land lnot 1));
              charge src dst bits
            end
          end
          else begin
            (* Observe-only (an [Auto] window, or an [Auto] run that
               decided against markers): full charge, plus — while
               undecided — run-length statistics through flag bit 4. *)
            if !auto_decided then ()
            else if repeat then begin
              incr obs_repeats;
              if flag land 4 = 0 then begin
                incr obs_runs;
                Bytes.unsafe_set ef slot (Char.chr (flag lor 4))
              end
            end
            else if flag land 4 <> 0 then
              Bytes.unsafe_set ef slot (Char.chr (flag land lnot 4));
            charge src dst bits
          end;
          Array.unsafe_set er slot !round;
          Array.unsafe_set !e_msg slot payload
        in
        (* A faulted copy went over the wire regardless of the memo:
           record the send without engaging suppression. *)
        let force src dst payload =
          ensure_edge payload;
          let slot = Grapho.Ugraph.edge_slot graph src dst in
          let flag = Char.code (Bytes.get !e_flag slot) in
          if flag land 1 = 1 then
            Bytes.set !e_flag slot (Char.chr (flag land lnot 1));
          !e_round.(slot) <- !round;
          !e_msg.(slot) <- payload
        in
        (* A drop desynchronizes the receiver's replay cache, so the
           silence convention on that edge must be re-established from
           scratch. *)
        let invalidate src dst =
          if Array.length !e_round > 0 then begin
            let slot = Grapho.Ugraph.edge_slot graph src dst in
            !e_round.(slot) <- min_int;
            let flag = Char.code (Bytes.get !e_flag slot) in
            if flag land 1 = 1 then
              Bytes.set !e_flag slot (Char.chr (flag land lnot 1))
          end
        in
        (* One full-neighborhood broadcast: bulk logical metering, one
           tree publish, and a collect mark per receiver (aggregated
           into one physical message per receiver per round at
           [flush_round]). Repeated broadcasts run the same silence
           machine per broadcaster. *)
        let broadcast ~bandwidth src dsts payload ~lo ~hi =
          let bits = measure payload in
          let cnt = hi - lo in
          if tracing then begin
            r_messages := !r_messages + cnt;
            r_bits := !r_bits + (cnt * bits);
            if bits > !r_max_bits then r_max_bits := bits
          end;
          messages := !messages + cnt;
          total_bits := !total_bits + (cnt * bits);
          if bits > !max_message_bits then max_message_bits := bits;
          (match bandwidth with
          | Some limit when bits > limit ->
              if strict then
                raise (Congest_violation { src; dst = dsts.(lo); bits })
              else begin
                congest_violations := !congest_violations + cnt;
                if tracing then r_violations := !r_violations + cnt
              end
          | _ -> ());
          if Array.length !b_msg = 0 then b_msg := Array.make (max n 1) payload;
          let repeat =
            b_round.(src) = !round - 1 && payload_eq !b_msg.(src) payload
          in
          let flag = Char.code (Bytes.get b_flag src) in
          if repeat && flag land 1 = 1 then Frugal.note_suppressed fr 1
          else begin
            let pub_bits =
              if repeat then begin
                if flag land 2 = 0 then ipush vw vw_len src;
                Bytes.set b_flag src (Char.chr (flag lor 3));
                Frugal.note_marker fr;
                2
              end
              else begin
                if flag land 1 = 1 then
                  Bytes.set b_flag src (Char.chr (flag land lnot 1));
                Frugal.note_publish fr;
                bits
              end
            in
            charge src (Frugal.hub fr src) pub_bits;
            for i = lo to hi - 1 do
              mark_collect (Array.unsafe_get dsts i) pub_bits
            done
          end;
          b_round.(src) <- !round;
          !b_msg.(src) <- payload
        in
        let blocked =
          match adversary with
          | None -> fun _ _ -> false
          | Some adv ->
              fun src dst -> Adversary.blocks adv ~src ~dst <> None
        in
        let flush_round () =
          let r = !round in
          (* Close an [Auto] observation window: arm iff the marker
             pair per silence run costs fewer physical messages than
             the repeats it would silence (average run length > 2). *)
          if (not !auto_decided) && r >= obs_window then begin
            auto_decided := true;
            let armed = !obs_repeats > 2 * !obs_runs in
            suppress_on := armed;
            Frugal.note_auto_decision fr ~armed
          end;
          (* Silences whose run ended this round pay their Eps marker
             (skipped silently when the edge is crashed or cut — the
             marker could not cross, and [blocks] reads no coins). *)
          let w = ref 0 in
          for i = 0 to !sw_len - 1 do
            let slot = !sw_slot.(i) in
            let flag = Char.code (Bytes.get !e_flag slot) in
            if flag land 1 = 1 then
              if !e_round.(slot) >= r then begin
                !sw_slot.(!w) <- slot;
                !sw_src.(!w) <- !sw_src.(i);
                !sw_dst.(!w) <- !sw_dst.(i);
                incr w
              end
              else begin
                Bytes.set !e_flag slot '\000';
                let src = !sw_src.(i) and dst = !sw_dst.(i) in
                if not (blocked src dst) then begin
                  charge src dst 2;
                  Frugal.note_marker fr
                end
              end
            else Bytes.set !e_flag slot (Char.chr (flag land lnot 2))
          done;
          sw_len := !w;
          (* Same sweep for armed broadcasters. *)
          let w = ref 0 in
          for i = 0 to !vw_len - 1 do
            let v = !vw.(i) in
            let flag = Char.code (Bytes.get b_flag v) in
            if flag land 1 = 1 then
              if b_round.(v) >= r then begin
                !vw.(!w) <- v;
                incr w
              end
              else begin
                Bytes.set b_flag v '\000';
                charge v (Frugal.hub fr v) 2;
                Frugal.note_marker fr;
                Grapho.Ugraph.iter_neighbors
                  (fun u -> mark_collect u 2)
                  graph v
              end
            else Bytes.set b_flag v (Char.chr (flag land lnot 2))
          done;
          vw_len := !w;
          (* Flush the aggregated collects: one physical message per
             receiver that heard tree traffic this round, 2 header
             bits plus everything fetched. [src = -1] marks the
             receiver side of a tree, like [Phase]'s global -1. *)
          for i = 0 to !cw_len - 1 do
            let v = !cw.(i) in
            charge (-1) v c_bits.(v);
            Frugal.note_collect fr
          done;
          cw_len := 0
        in
        (* Faulted copies are charged at full size: a sender cannot
           lean on silence over a lossy link. *)
        let duplicated src dst payload bits =
          charge src dst bits;
          charge src dst bits;
          force src dst payload
        in
        let dropped_phys src dst bits =
          charge src dst bits;
          invalidate src dst
        in
        Some { direct; duplicated; dropped_phys; broadcast; flush = flush_round }
  in
  (* The one adversary verdict match; [direct], [duplicated] and
     [dropped_phys] are the frugal layer's physical charges (nothing
     on a plain run, whose physical stream is its logical one). The
     coin stream is consulted per {e logical} message in delivery
     order, so faulted executions stay bit-identical with and without
     [?frugal]. *)
  let consult adv ~direct ~duplicated ~dropped_phys ~bandwidth ~deliver src
      dst payload =
    check_edge src dst;
    let bits = measure payload in
    match Adversary.consult adv ~src ~dst with
    | Adversary.Deliver ->
        meter ~bandwidth src dst bits;
        direct src dst payload bits;
        deliver ~src ~dst payload
    | Adversary.Duplicate ->
        meter ~bandwidth src dst bits;
        deliver ~src ~dst payload;
        meter ~bandwidth src dst bits;
        deliver ~src ~dst payload;
        duplicated src dst payload bits
    | Adversary.Drop reason ->
        meter ~bandwidth src dst bits;
        dropped_phys src dst bits;
        incr dropped;
        incr r_dropped;
        if tracing && wants_sends then
          Trace.emit trace
            (Trace.Message_dropped { src; dst; round = !round; reason })
  in
  (* [account] meters one message. The no-adversary paths are resolved
     here once, so a plain run does exactly the pre-fault-injection
     work per message. *)
  let account =
    match (adversary, frugal_layer) with
    | None, None ->
        fun ~bandwidth ~deliver src dst payload ->
          check_edge src dst;
          meter ~bandwidth src dst (measure payload);
          deliver ~src ~dst payload
    | None, Some f ->
        fun ~bandwidth ~deliver src dst payload ->
          check_edge src dst;
          let bits = measure payload in
          meter ~bandwidth src dst bits;
          f.direct src dst payload bits;
          deliver ~src ~dst payload
    | Some adv, None ->
        consult adv
          ~direct:(fun _ _ _ _ -> ())
          ~duplicated:(fun _ _ _ _ -> ())
          ~dropped_phys:(fun _ _ _ -> ())
    | Some adv, Some f ->
        consult adv ~direct:f.direct ~duplicated:f.duplicated
          ~dropped_phys:f.dropped_phys
  in
  let per_message ~bandwidth ~deliver src dsts msgs ~lo ~hi =
    for i = lo to hi - 1 do
      account ~bandwidth ~deliver src
        (Array.unsafe_get dsts i)
        (Array.unsafe_get msgs i)
    done
  in
  (* [account_seg] meters one drained outbox segment (all sends of one
     vertex this round), so the frugal path can recognize broadcasts. *)
  let account_seg =
    match (adversary, frugal_layer) with
    | None, Some f ->
        (* A segment is a broadcast when it spells out the whole
           neighbor row with one shared (physically equal) payload —
           which is what the protocols' broadcast helpers emit.
           Everything else takes the per-edge path. The broadcast test
           replaces the per-message [mem_edge] binary searches with one
           linear row comparison, which is where the frugal merge-path
           speedup comes from. *)
        let shared msgs ~lo ~hi =
          let p0 = Array.unsafe_get msgs lo in
          let i = ref (lo + 1) in
          while !i < hi && Array.unsafe_get msgs !i == p0 do
            incr i
          done;
          !i = hi
        in
        fun ~bandwidth ~deliver src dsts msgs ~lo ~hi ->
          if
            hi - lo >= 2
            && shared msgs ~lo ~hi
            && Grapho.Ugraph.row_matches graph src dsts ~lo ~hi
          then begin
            let p0 = Array.unsafe_get msgs lo in
            f.broadcast ~bandwidth src dsts p0 ~lo ~hi;
            for j = lo to hi - 1 do
              deliver ~src ~dst:(Array.unsafe_get dsts j) p0
            done
          end
          else per_message ~bandwidth ~deliver src dsts msgs ~lo ~hi
    | _ ->
        (* Collection trees assume a reliable network; under an
           adversary every message takes the per-edge path so the coin
           stream is untouched. *)
        per_message
  in
  let flush_round =
    match frugal_layer with None -> ignore | Some f -> f.flush
  in
  let finish rounds ~steps ~crashed =
    {
      rounds;
      messages = !messages;
      total_bits = !total_bits;
      max_message_bits = !max_message_bits;
      congest_violations = !congest_violations;
      steps;
      dropped = !dropped;
      crashed;
      sent_physical = (if frugal_on then !phys_messages else !messages);
      sent_bits = (if frugal_on then !phys_bits else !total_bits);
      minor_words = (Gc.minor_words () -. minor0);
      allocated_bytes =
        (* [Gc.minor_words] is precise (it adds the unflushed young
           region), but on this runtime [Gc.allocated_bytes] only
           advances when the minor heap is flushed, so for runs that
           fit inside one minor heap the raw delta undercounts —
           while still being the only counter that sees direct
           major-heap allocations (blocks over 256 words, e.g. big
           arrays). Take the max of both views: a conservative lower
           bound on total allocation that is never below the minor
           activity actually measured. *)
        (let raw = Gc.allocated_bytes () -. alloc0 in
         let word_bytes = float_of_int (Sys.word_size / 8) in
         Float.max (word_bytes *. (Gc.minor_words () -. minor0)) raw);
    }
  in
  let take_round ~stepped ~vdone ~crashed ~elapsed_ns r =
    let minor_now = Gc.minor_words () in
    let stat =
      {
        Trace.round = r;
        messages = !r_messages;
        bits = !r_bits;
        max_bits = !r_max_bits;
        vertices_stepped = stepped;
        vertices_done = vdone;
        congest_violations = !r_violations;
        dropped = !r_dropped;
        crashed;
        elapsed_ns;
        minor_words = int_of_float (minor_now -. !r_minor_base);
        physical = (if frugal_on then !r_physical else !r_messages);
      }
    in
    r_minor_base := minor_now;
    r_messages := 0;
    r_bits := 0;
    r_max_bits := 0;
    r_violations := 0;
    r_dropped := 0;
    r_physical := 0;
    stat
  in
  (tracing, account_seg, finish, take_round, flush_round)

(* Sparse activation ([?active]): the engine can run a spec on a
   restricted vertex set. Semantically the run IS the protocol on the
   induced subgraph [graph[active]] — init hands each active vertex
   only its active neighbors, deliveries to frozen vertices are
   rejected, and termination quantifies over the active set — but
   vertex ids, the randomness they key, and [check_edge]'s membership
   probes all stay global, so a protocol needs no renumbering. Every
   engine structure (states, done flags, inbox stores) is sized to
   |active|, not n: the per-round and per-run cost scales with the
   activation footprint, which is what makes ball-local spanner
   repair cheaper than recomputing. Only the vertex-id -> slot map is
   O(n). The slot order equals the (strictly ascending) active order,
   so side effects replay in ascending vertex id exactly like a dense
   run and the seq / par / naive bit-identity contract carries over
   unchanged. *)
let validate_active ~n act =
  let prev = ref (-1) in
  Array.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Engine: ?active vertex %d out of range [0,%d)" v n);
      if v <= !prev then invalid_arg "Engine: ?active must be strictly ascending";
      prev := v)
    act

let slot_of_vertex ~n act =
  let pos = Array.make n (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) act;
  pos

let filtered_neighbors ~graph ~pos v =
  let cnt =
    Grapho.Ugraph.fold_neighbors
      (fun acc u -> if Array.unsafe_get pos u >= 0 then acc + 1 else acc)
      graph v 0
  in
  let arr = Array.make cnt 0 in
  let i = ref 0 in
  Grapho.Ugraph.iter_neighbors
    (fun u ->
      if Array.unsafe_get pos u >= 0 then begin
        arr.(!i) <- u;
        incr i
      end)
    graph v;
  arr

(* Normalizing an empty-schedule adversary away keeps the [None] hot
   path byte-for-byte what it was before fault injection existed — the
   drop-p=0 ≡ no-adversary identity holds trivially. *)
let normalize_adversary = function
  | Some a when not (Adversary.has_faults a) -> None
  | a -> a

(* Inbox storage, the one thing the two schedulers keep apart.
   [`Active] swaps two preallocated banks of per-slot buffers (this
   round's sends accumulate in [next]) and hands a slot's own buffer
   to [step] as its inbox view, so steady-state rounds allocate
   nothing. [`Naive], the differential oracle, conses deliveries onto
   per-slot lists and sorts each into a scratch view at step time:
   deliberately list-based, so the equivalence suite diffs the
   zero-allocation path against an independently-structured one. *)
type 'msg boxes =
  | Banks of {
      mutable cur : 'msg inbox array;
      mutable next : 'msg inbox array;
    }
  | Lists of {
      mutable cur : (int * 'msg) list array;
      mutable next : (int * 'msg) list array;
      scratch : 'msg inbox;
    }

(* One round loop for both schedulers. Setup, round 0, the round
   limit, fault activation, round bracketing and termination are
   shared; the schedulers differ only in their [boxes] and in which
   slots they step.

   [`Active] is event-driven: a slot is stepped only while it has
   pending messages or has not signalled [`Done]. Correct whenever the
   algorithm is *quiescent when done* — a vertex that returned [`Done]
   and then steps on an empty inbox changes nothing and stays [`Done]
   (every spec in this repository satisfies this; the equivalence
   suite checks it on the protocols that matter). Sends land in a
   reused outbox that is drained — validated, metered, traced,
   delivered — right after the step returns. [`Naive] steps every
   live slot every round.

   With [par > 1] the [`Active] stepping fans out over a persistent
   domain pool: the slot range is cut into contiguous shards, each
   shard steps its slots appending sends to a per-shard outbox and a
   [(vertex, count)] segment index, and a serial merge then walks the
   shards in order — i.e. in ascending vertex id — performing every
   side effect the sequential loop would have performed, in the same
   order: message delivery into the next bank (so inbox insertion
   order is preserved), metric accumulation, congestion checks and
   trace [Send] emission. The parallel phase writes only disjoint
   per-slot cells ([states], [done_flags], each slot's own inbox
   buffer) plus per-shard scratch, and the pool barrier publishes
   those writes, so the result is bit-identical to the sequential loop
   for any shard count (GC-pressure metrics excepted: each domain owns
   its minor heap). The only observable difference is on error paths:
   a strict [Congest_violation] or a non-neighbor [Invalid_argument]
   is raised at merge time, after the whole round has been stepped,
   rather than mid-round. *)
let run ?max_rounds ?(strict = false) ?(trace = Trace.null) ?(sched = `Active)
    ?(par = 1) ?adversary ?profile ?frugal ?active ~model ~graph spec =
  let n = Grapho.Ugraph.n graph in
  (match active with
  | None -> ()
  | Some act ->
      validate_active ~n act;
      (* Frugal keys per-edge suppression machines on the full graph
         and would silently mis-account against an induced subgraph —
         reject rather than guess a semantics.  The adversary, by
         contrast, composes: its coin stream is consulted once per
         delivered message in merge order (unchanged by sparsity),
         fraction crashes resolve over the full n, and a crash landing
         on a frozen vertex is a no-op (the vertex was never running). *)
      if frugal <> None then
        invalid_arg "Engine: ?active is incompatible with ?frugal");
  let adversary = normalize_adversary adversary in
  (match adversary with Some a -> Adversary.reset a ~n | None -> ());
  (* [a] vertices actually run; [slot] indexes every engine array and
     equals the vertex id on a dense run. *)
  let sparse = active <> None in
  let act = match active with Some act -> act | None -> [||] in
  let a = if sparse then Array.length act else n in
  let pos = if sparse then slot_of_vertex ~n act else [||] in
  let vertex_of slot = if sparse then Array.unsafe_get act slot else slot in
  (* [`Naive] stays single-domain: it is the reference the sharded
     path is diffed against. *)
  let par = match sched with `Naive -> 1 | `Active -> max 1 (min par a) in
  let pool = if par > 1 then Some (Pool.get par) else None in
  (* Shard count actually used per round. *)
  let k = match pool with None -> 1 | Some p -> min par (Pool.size p) in
  let profiling = profile <> None in
  (match profile with
  | Some p ->
      Profile.run_begin p;
      if pool <> None then Profile.ensure_shards p k
  | None -> ());
  (* Per-shard scratch, allocated once and reused every round; the
     sequential loops use shard 0's counters. *)
  let shard_out = Array.init k (fun _ -> outbox_create ()) in
  let shard_seg = Array.init k (fun _ -> seg_make ()) in
  let shard_stepped = Array.make k 0 in
  let shard_delta = Array.make k 0 in
  let max_rounds =
    match max_rounds with Some r -> r | None -> 50 * (a + 5)
  in
  let done_flags = Array.make a false in
  let not_done = ref a in
  let pending = ref 0 in (* messages delivered for the next round *)
  let round = ref 0 in
  let boxes =
    match sched with
    | `Active ->
        (* Degree in the full graph is an upper bound on the induced
           degree, so the hint stays valid on sparse runs. *)
        let bank () =
          Array.init a (fun s ->
              inbox_create ~hint:(Grapho.Ugraph.degree graph (vertex_of s)) ())
        in
        let cur = bank () in
        Banks { cur; next = bank () }
    | `Naive ->
        Lists
          { cur = Array.make a []; next = Array.make a [];
            scratch = inbox_create () }
  in
  let tracing, account_seg, finish, take_round, flush_round =
    make_accounting ?adversary ?profile ?frugal ~trace ~round ~strict ~graph
      ~measure:spec.measure ()
  in
  let bandwidth = Model.bandwidth model in
  let crashed_now () =
    match adversary with None -> 0 | Some a -> Adversary.crashed_count a
  in
  let deliver ~src ~dst payload =
    let slot = if sparse then pos.(dst) else dst in
    if slot < 0 then
      invalid_arg
        (Printf.sprintf "Engine: vertex %d sent to frozen vertex %d" src dst);
    incr pending;
    match boxes with
    | Banks b -> inbox_push b.next.(slot) ~src payload
    | Lists l -> l.next.(slot) <- (src, payload) :: l.next.(slot)
  in
  let account_seg src dsts msgs ~lo ~hi =
    account_seg ~bandwidth ~deliver src dsts msgs ~lo ~hi
  in
  let out = outbox_create ~hint:(Grapho.Ugraph.max_degree graph) () in
  let drain src =
    account_seg src out.o_dst out.o_msg ~lo:0 ~hi:out.o_len;
    out.o_len <- 0
  in
  let round_end t0 ~stepped =
    flush_round ();
    let t1 = if tracing || profiling then now_ns () else 0 in
    (match profile with
    | Some p -> Profile.round_span p ~round:!round ~t0 ~t1
    | None -> ());
    if tracing then
      Trace.emit trace
        (Trace.Round_end
           (take_round ~stepped ~vdone:(a - !not_done)
              ~crashed:(crashed_now ()) ~elapsed_ns:(t1 - t0) !round))
  in
  (* Round 0: init every running vertex in ascending id order (always
     sequential), draining the outbox after each init so delivery,
     metric and trace side effects happen in exactly per-vertex
     ascending order. A sparse run hands each vertex only its active
     neighbors. *)
  if tracing then Trace.emit trace (Trace.Round_begin 0);
  let t0 = if tracing || profiling then now_ns () else 0 in
  let states =
    Array.init a (fun slot ->
        let v = vertex_of slot in
        let neighbors =
          if sparse then filtered_neighbors ~graph ~pos v
          else Grapho.Ugraph.neighbors graph v
        in
        let s = spec.init ~n ~vertex:v ~neighbors ~out in
        drain v;
        s)
  in
  let steps = ref a in
  round_end t0 ~stepped:a;
  let record_inbox =
    match (profile, pool) with
    | None, _ -> fun ~shard:_ _ -> ()
    | Some p, None -> fun ~shard:_ len -> Profile.record_inbox p len
    | Some p, Some _ ->
        (* Shards record into disjoint profile slots; the merge flushes
           them on the calling thread. *)
        fun ~shard len -> Profile.record_shard_inbox p ~shard len
  in
  (* The per-slot step body: inbox histogram, [spec.step], inbox reset
     and done bookkeeping. Writes only the slot's own cells and shard
     [shard]'s counters, so pool shards can run it concurrently. *)
  let step ~shard ~out ib slot =
    record_inbox ~shard ib.i_len;
    let state, status =
      spec.step ~round:!round ~vertex:(vertex_of slot) states.(slot) ib ~out
    in
    ib.i_len <- 0;
    states.(slot) <- state;
    shard_stepped.(shard) <- shard_stepped.(shard) + 1;
    match status with
    | `Done ->
        if not done_flags.(slot) then begin
          done_flags.(slot) <- true;
          shard_delta.(shard) <- shard_delta.(shard) - 1
        end
    | `Continue ->
        if done_flags.(slot) then begin
          done_flags.(slot) <- false;
          shard_delta.(shard) <- shard_delta.(shard) + 1
        end
  in
  (* The [`Active] wake condition, shared by the sequential loop and
     the pool shards. *)
  let wake_step ~shard ~out bank slot =
    let b = bank.(slot) in
    let wake = b.i_len > 0 || not done_flags.(slot) in
    if wake then step ~shard ~out b slot;
    wake
  in
  let finished = ref (a = 0) in
  while not !finished do
    incr round;
    if !round > max_rounds then
      failwith
        (Printf.sprintf "Engine.run: no termination within %d rounds"
           max_rounds);
    if tracing then Trace.emit trace (Trace.Round_begin !round);
    let t0 = if tracing || profiling then now_ns () else 0 in
    (* Last round's deliveries become this round's inboxes; this
       round's sends accumulate in the other store and arrive next
       round. *)
    (match boxes with
    | Banks b ->
        let t = b.cur in
        b.cur <- b.next;
        b.next <- t
    | Lists l ->
        l.cur <- l.next;
        l.next <- Array.make a []);
    pending := 0;
    (* Fault activation happens on the calling domain, before any
       stepping (sequential or parallel): a crash-stopped vertex's
       pending inbox is destroyed and it is flagged done, so no
       scheduler wakes it again (deliveries to it are dropped at
       [consult] time). The pool barrier publishes these writes to
       the shards, and the order is identical for any shard count. *)
    (match adversary with
    | None -> ()
    | Some adv ->
        Adversary.begin_round adv ~round:!round (fun kind ->
            (match kind with
            | Trace.Crash v ->
                (* Slot-indexed engine arrays: a crash at a frozen
                   vertex of a sparse run touches no engine state. *)
                let slot = if sparse then pos.(v) else v in
                if slot >= 0 then begin
                  (match boxes with
                  | Banks b -> b.cur.(slot).i_len <- 0
                  | Lists l -> l.cur.(slot) <- []);
                  if not done_flags.(slot) then begin
                    done_flags.(slot) <- true;
                    decr not_done
                  end
                end
            | Trace.Cut _ | Trace.Restore _ -> ());
            if tracing then
              Trace.emit trace (Trace.Fault_injected { round = !round; kind })));
    Array.fill shard_stepped 0 k 0;
    Array.fill shard_delta 0 k 0;
    (match (boxes, pool) with
    | Banks b, None ->
        for slot = 0 to a - 1 do
          if wake_step ~shard:0 ~out b.cur slot then drain (vertex_of slot)
        done
    | Banks b, Some pool ->
        let bank = b.cur in
        (* Parallel phase: step shards concurrently. Shards cut the slot
           range, which on a sparse run is the ascending active order,
           so the serial merge below still replays side effects in
           ascending vertex id. *)
        Pool.run pool ~shards:k ~n:a (fun ~lo ~hi ~shard ->
            (match profile with
            | Some p -> Profile.shard_begin p ~shard
            | None -> ());
            let sout = shard_out.(shard) and seg = shard_seg.(shard) in
            for slot = lo to hi - 1 do
              let before = sout.o_len in
              (* Draining an empty outbox is a no-op, so slots that
                 sent nothing are skipped in the merge. The segment
                 records the global vertex id: the merge's accounting
                 validates sends against the full graph. *)
              if wake_step ~shard ~out:sout bank slot then begin
                let cnt = sout.o_len - before in
                if cnt > 0 then seg_push seg (vertex_of slot) cnt
              end
            done;
            match profile with
            | Some p -> Profile.shard_end p ~shard
            | None -> ());
        let merge_t0 =
          match profile with Some _ -> now_ns () | None -> 0
        in
        (* Serial merge, in ascending vertex id (shards are contiguous
           ascending ranges and each shard outbox is the in-order
           concatenation of its vertices' sends): exactly the
           side-effect order of the sequential loop. *)
        for s = 0 to k - 1 do
          let sout = shard_out.(s) and seg = shard_seg.(s) in
          let off = ref 0 in
          for i = 0 to seg.s_len - 1 do
            let stop = !off + seg.s_cnt.(i) in
            account_seg seg.s_v.(i) sout.o_dst sout.o_msg ~lo:!off ~hi:stop;
            off := stop
          done;
          sout.o_len <- 0;
          seg.s_len <- 0
        done;
        (match profile with
        | Some p ->
            Profile.merge_span p ~round:!round ~shards:k ~t0:merge_t0
              ~t1:(now_ns ())
        | None -> ())
    | Lists l, _ ->
        for slot = 0 to a - 1 do
          let v = vertex_of slot in
          let live =
            match adversary with
            | None -> true
            | Some adv -> not (Adversary.is_crashed adv v)
          in
          if live then begin
            (* Monomorphic sort key: sources are ints. *)
            let sorted =
              List.sort (fun (a, _) (b, _) -> Int.compare a b) l.cur.(slot)
            in
            inbox_clear l.scratch;
            List.iter (fun (s, m) -> inbox_push l.scratch ~src:s m) sorted;
            step ~shard:0 ~out l.scratch slot;
            drain v
          end
        done);
    let stepped = Array.fold_left ( + ) 0 shard_stepped in
    not_done := !not_done + Array.fold_left ( + ) 0 shard_delta;
    steps := !steps + stepped;
    round_end t0 ~stepped;
    if !not_done = 0 && !pending = 0 then finished := true
  done;
  (match profile with Some p -> Profile.run_end p | None -> ());
  (states, finish !round ~steps:!steps ~crashed:(crashed_now ()))
