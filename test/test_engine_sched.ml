(* The active-set scheduler must be observationally identical to the
   naive step-everyone reference path that [Distsim.Engine] retains:
   same states, same spanners, same metrics, bit for bit. The protocol
   specs are quiescent when done (the contract [Engine.sched]
   documents), so this is an equality, not an approximation. *)

open Grapho
module C = Spanner_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_metrics name (a : Distsim.Engine.metrics)
    (b : Distsim.Engine.metrics) =
  check_int (name ^ " rounds") a.rounds b.rounds;
  check_int (name ^ " messages") a.messages b.messages;
  check_int (name ^ " total_bits") a.total_bits b.total_bits;
  check_int (name ^ " max_message_bits") a.max_message_bits
    b.max_message_bits;
  check_int (name ^ " congest_violations") a.congest_violations
    b.congest_violations

(* [steps] is the one metric the schedulers legitimately disagree on:
   the naive path activates everyone every round (n inits + n per
   round), the active path only the awake set — never more. *)
let check_steps name ~n (active : Distsim.Engine.metrics)
    (naive : Distsim.Engine.metrics) =
  check_int (name ^ " naive steps = n*(rounds+1)")
    (n * (naive.rounds + 1))
    naive.steps;
  check (name ^ " active steps <= naive") true (active.steps <= naive.steps);
  check (name ^ " active steps >= n inits") true (active.steps >= n)

let rng seed = Rng.create seed

(* Generator families x seeds for the equivalence matrix. *)
let families =
  [
    ("K14", fun _ -> Generators.complete 14);
    ("path_40", fun _ -> Generators.path 40);
    ("cycle_31", fun _ -> Generators.cycle 31);
    ("star_25", fun _ -> Generators.star 25);
    ("caveman", fun s -> Generators.caveman (rng s) 5 6 0.05);
    ("gnp_60", fun s -> Generators.gnp_connected (rng s) 60 0.15);
    ("ladder_80", fun s -> Generators.clique_ladder (rng s) 80);
    ("pa_70_6", fun s -> Generators.preferential_attachment (rng s) 70 6);
    ("grid_7x7", fun _ -> Generators.grid 7 7);
    ("bipartite_8_9", fun _ -> Generators.complete_bipartite 8 9);
  ]

let seeds = [ 0; 3; 11 ]

let test_local_matrix () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun seed ->
          let g = make seed in
          let a = C.Two_spanner_local.run ~seed ~sched:`Active g in
          let b = C.Two_spanner_local.run ~seed ~sched:`Naive g in
          let label = Printf.sprintf "%s/seed=%d" name seed in
          check (label ^ " spanner") true (Edge.Set.equal a.spanner b.spanner);
          check_int (label ^ " iterations") a.iterations b.iterations;
          check_metrics label a.metrics b.metrics;
          check_steps label ~n:(Ugraph.n g) a.metrics b.metrics)
        seeds)
    families

let test_congest_matrix () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun seed ->
          let g = make seed in
          let a = C.Two_spanner_local.run_congest ~seed ~sched:`Active g in
          let b = C.Two_spanner_local.run_congest ~seed ~sched:`Naive g in
          let label = Printf.sprintf "congest:%s/seed=%d" name seed in
          check (label ^ " spanner") true (Edge.Set.equal a.spanner b.spanner);
          check_int (label ^ " iterations") a.iterations b.iterations;
          check_metrics label a.metrics b.metrics)
        [ 0; 5 ])
    [
      ("K10", fun _ -> Generators.complete 10);
      ("caveman", fun s -> Generators.caveman (rng (s + 1)) 4 6 0.05);
      ("gnp_30", fun s -> Generators.gnp_connected (rng (s + 2)) 30 0.2);
      ("grid_5x5", fun _ -> Generators.grid 5 5);
    ]

let test_weighted_matrix () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun seed ->
          let g = make seed in
          let w =
            Generators.random_weights_with_zeros (rng (seed + 7)) g
              ~zero_fraction:0.2 ~max_weight:8
          in
          let a = C.Two_spanner_local.run_weighted ~seed ~sched:`Active g w in
          let b = C.Two_spanner_local.run_weighted ~seed ~sched:`Naive g w in
          let label = Printf.sprintf "weighted:%s/seed=%d" name seed in
          check (label ^ " spanner") true (Edge.Set.equal a.spanner b.spanner);
          check_int (label ^ " iterations") a.iterations b.iterations;
          check_metrics label a.metrics b.metrics)
        [ 2; 9 ])
    [
      ("caveman", fun s -> Generators.caveman (rng (s + 3)) 4 5 0.05);
      ("gnp_40", fun s -> Generators.gnp_connected (rng (s + 4)) 40 0.2);
    ]

(* A plain engine spec exercised under both schedulers: flooding the
   minimum id, a spec whose vertices go quiet at different times (and
   may wake again when an improvement arrives late). *)
type flood = { mutable best : int; nbrs : int array }

let flood_spec graph =
  let n = max 2 (Ugraph.n graph) in
  let to_all out nbrs payload =
    for i = 0 to Array.length nbrs - 1 do
      Distsim.Engine.emit out ~dst:nbrs.(i) payload
    done
  in
  {
    Distsim.Engine.init =
      (fun ~n:_ ~vertex ~neighbors ~out ->
        to_all out neighbors vertex;
        { best = vertex; nbrs = neighbors });
    step =
      (fun ~round:_ ~vertex:_ st inbox ~out ->
        let prev = st.best in
        Distsim.Engine.inbox_iter
          (fun ~src:_ p -> if p < st.best then st.best <- p)
          inbox;
        if st.best < prev then begin
          to_all out st.nbrs st.best;
          (st, `Continue)
        end
        else (st, `Done));
    measure = (fun _ -> Distsim.Message.bits_for_id ~n);
  }

let test_flood_min_both_scheds () =
  List.iter
    (fun (name, g) ->
      let run sched =
        Distsim.Engine.run ~sched ~model:Distsim.Model.local ~graph:g
          (flood_spec g)
      in
      let sa, ma = run `Active in
      let sb, mb = run `Naive in
      check (name ^ " minima") true
        (Array.for_all2 (fun a b -> a.best = b.best) sa sb);
      check_metrics name ma mb;
      check_steps name ~n:(Ugraph.n g) ma mb)
    [
      ("path_30", Generators.path 30);
      ("star_20", Generators.star 20);
      ("gnp_50", Generators.gnp_connected (rng 8) 50 0.1);
    ]

(* The per-edge traffic profile — the quantity the two-party
   cut-metering arguments depend on — collected through a Send-only
   trace sink must be identical under both schedulers, and the
   two-party harness (which meters its cut with such a sink) must
   report exactly that profile summed over the cut. *)
let test_send_sink_per_edge () =
  let collect run =
    let tbl : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
    let record ~src ~dst ~bits =
      Hashtbl.replace tbl (src, dst)
        (bits + Option.value ~default:0 (Hashtbl.find_opt tbl (src, dst)))
    in
    run
      (Distsim.Trace.custom (function
        | Distsim.Trace.Send { src; dst; bits; _ } -> record ~src ~dst ~bits
        | _ -> ()));
    tbl
  in
  let equal_tbl a b =
    Hashtbl.length a = Hashtbl.length b
    && Hashtbl.fold
         (fun k v acc -> acc && Hashtbl.find_opt b k = Some v)
         a true
  in
  List.iter
    (fun (name, g) ->
      let via_sink sched =
        collect (fun sink ->
            ignore
              (Distsim.Engine.run ~sched ~trace:sink
                 ~model:Distsim.Model.local ~graph:g (flood_spec g)))
      in
      let sa = via_sink `Active and sn = via_sink `Naive in
      check (name ^ " sink: active = naive") true (equal_tbl sa sn);
      check (name ^ " some traffic recorded") true (Hashtbl.length sa > 0);
      let n = Ugraph.n g in
      let bob = List.init (n / 2) (fun i -> i + (n - (n / 2))) in
      let is_bob v = v >= n - (n / 2) in
      let report, _ =
        Lowerbound.Two_party.meter ~model:Distsim.Model.local ~graph:g ~bob
          (flood_spec g)
      in
      check_int (name ^ " two-party cut bits = sink profile over the cut")
        (Hashtbl.fold
           (fun (s, d) bits acc ->
             if is_bob s <> is_bob d then acc + bits else acc)
           sa 0)
        report.bits_across_cut;
      (* The full protocol via its ?trace parameter. *)
      let protocol sched =
        collect (fun sink ->
            ignore (C.Two_spanner_local.run ~seed:4 ~sched ~trace:sink g))
      in
      check (name ^ " protocol per-edge bits: active = naive") true
        (equal_tbl (protocol `Active) (protocol `Naive)))
    [
      ("path_20", Generators.path 20);
      ("caveman", Generators.caveman (rng 12) 4 5 0.05);
      ("gnp_40", Generators.gnp_connected (rng 13) 40 0.15);
    ]

(* ------------------------------------------------------------------ *)
(* Parallel stepping must be *bit-identical* to the sequential
   [`Active] path: the shards only write disjoint per-vertex slots and
   the merge replays every side effect in ascending vertex id, so this
   is an equality on everything — final states, spanner edge sets, all
   metrics including [steps], and the full Stats-sink round series.
   The one field legitimately allowed to differ is [elapsed_ns]
   (wall-clock time inside the round). *)

let pars = [ 1; 2; 4 ]

let check_steps_eq name (a : Distsim.Engine.metrics)
    (b : Distsim.Engine.metrics) =
  check_metrics name a b;
  check_int (name ^ " steps") a.steps b.steps

let check_series name (a : Distsim.Trace.series) (b : Distsim.Trace.series) =
  check_int
    (name ^ " series length")
    (Array.length a.rounds)
    (Array.length b.rounds);
  Array.iteri
    (fun i (ra : Distsim.Trace.round_stat) ->
      let rb = b.rounds.(i) in
      let lab = Printf.sprintf "%s round %d" name i in
      check_int (lab ^ " round") ra.round rb.round;
      check_int (lab ^ " messages") ra.messages rb.messages;
      check_int (lab ^ " bits") ra.bits rb.bits;
      check_int (lab ^ " max_bits") ra.max_bits rb.max_bits;
      check_int (lab ^ " stepped") ra.vertices_stepped rb.vertices_stepped;
      check_int (lab ^ " done") ra.vertices_done rb.vertices_done;
      check_int (lab ^ " violations") ra.congest_violations
        rb.congest_violations
      (* [elapsed_ns] is wall-clock and excluded by design. *))
    a.rounds;
  check (name ^ " phases") true (a.phases = b.phases);
  check (name ^ " counters") true (a.counters = b.counters)

(* Run [f] with a fresh stats sink; return the result and the series. *)
let with_stats f =
  let st = Distsim.Trace.stats () in
  let r = f (Distsim.Trace.stats_sink st) in
  (r, Distsim.Trace.series st)

let check_protocol_par name base bs (r : C.Two_spanner_local.result) s =
  let b : C.Two_spanner_local.result = base in
  check (name ^ " spanner") true (Edge.Set.equal b.spanner r.spanner);
  check_int (name ^ " iterations") b.iterations r.iterations;
  check_steps_eq name b.metrics r.metrics;
  check_series name bs s

let test_par_local_matrix () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun seed ->
          let g = make seed in
          let base, bs =
            with_stats (fun sink ->
                C.Two_spanner_local.run ~seed ~trace:sink g)
          in
          List.iter
            (fun par ->
              let label = Printf.sprintf "par%d:%s/seed=%d" par name seed in
              let r, s =
                with_stats (fun sink ->
                    C.Two_spanner_local.run ~seed ~par ~trace:sink g)
              in
              check_protocol_par label base bs r s)
            pars)
        seeds)
    families

let test_par_congest_matrix () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun seed ->
          let g = make seed in
          let base, bs =
            with_stats (fun sink ->
                C.Two_spanner_local.run_congest ~seed ~trace:sink g)
          in
          List.iter
            (fun par ->
              let label =
                Printf.sprintf "par%d:congest:%s/seed=%d" par name seed
              in
              let r, s =
                with_stats (fun sink ->
                    C.Two_spanner_local.run_congest ~seed ~par ~trace:sink g)
              in
              check_protocol_par label base bs r s)
            pars)
        [ 0; 5 ])
    [
      ("K10", fun _ -> Generators.complete 10);
      ("caveman", fun s -> Generators.caveman (rng (s + 1)) 4 6 0.05);
      ("gnp_30", fun s -> Generators.gnp_connected (rng (s + 2)) 30 0.2);
      ("grid_5x5", fun _ -> Generators.grid 5 5);
    ]

let test_par_weighted_matrix () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun seed ->
          let g = make seed in
          let w =
            Generators.random_weights_with_zeros (rng (seed + 7)) g
              ~zero_fraction:0.2 ~max_weight:8
          in
          let base, bs =
            with_stats (fun sink ->
                C.Two_spanner_local.run_weighted ~seed ~trace:sink g w)
          in
          List.iter
            (fun par ->
              let label =
                Printf.sprintf "par%d:weighted:%s/seed=%d" par name seed
              in
              let r, s =
                with_stats (fun sink ->
                    C.Two_spanner_local.run_weighted ~seed ~par ~trace:sink g w)
              in
              check_protocol_par label base bs r s)
            pars)
        [ 2; 9 ])
    [
      ("caveman", fun s -> Generators.caveman (rng (s + 3)) 4 5 0.05);
      ("gnp_40", fun s -> Generators.gnp_connected (rng (s + 4)) 40 0.2);
    ]

let test_par_mds () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun seed ->
          let g = make seed in
          let base, bs =
            with_stats (fun sink ->
                C.Mds.run ~rng:(rng seed) ~trace:sink g)
          in
          List.iter
            (fun par ->
              let label = Printf.sprintf "par%d:mds:%s/seed=%d" par name seed in
              let r, s =
                with_stats (fun sink ->
                    C.Mds.run ~rng:(rng seed) ~par ~trace:sink g)
              in
              let b : C.Mds.result = base in
              check (label ^ " dominating set") true
                (b.dominating_set = r.dominating_set);
              check_int (label ^ " iterations") b.iterations r.iterations;
              check_steps_eq label b.metrics r.metrics;
              check_series label bs s)
            pars;
          (* The retained naive list path must agree with the mailbox
             scheduler on everything but [steps]. *)
          let nv = C.Mds.run ~rng:(rng seed) ~sched:`Naive g in
          let b : C.Mds.result = base in
          let label = Printf.sprintf "naive:mds:%s/seed=%d" name seed in
          check (label ^ " dominating set") true
            (b.dominating_set = nv.dominating_set);
          check_int (label ^ " iterations") b.iterations nv.iterations;
          check_metrics label b.metrics nv.metrics)
        [ 0; 5 ])
    [
      ("K10", fun _ -> Generators.complete 10);
      ("caveman", fun s -> Generators.caveman (rng (s + 1)) 4 6 0.05);
      ("gnp_40", fun s -> Generators.gnp_connected (rng (s + 6)) 40 0.15);
      ("star_25", fun _ -> Generators.star 25);
    ]

let test_par_flood () =
  List.iter
    (fun (name, g) ->
      let run ?par sink =
        Distsim.Engine.run ?par ~trace:sink ~model:Distsim.Model.local
          ~graph:g (flood_spec g)
      in
      let (sa, ma), bs = with_stats (fun sink -> run sink) in
      List.iter
        (fun par ->
          let label = Printf.sprintf "par%d:%s" par name in
          let (sp, mp), s = with_stats (fun sink -> run ~par sink) in
          check (label ^ " minima") true
            (Array.for_all2 (fun a b -> a.best = b.best) sa sp);
          check_steps_eq label ma mp;
          check_series label bs s)
        pars;
      (* Degenerate shard counts: more domains than vertices, and the
         untraced fast path. *)
      let sp, mp =
        Distsim.Engine.run ~par:64 ~model:Distsim.Model.local ~graph:g
          (flood_spec g)
      in
      check (name ^ " par=64 minima") true
        (Array.for_all2 (fun a b -> a.best = b.best) sa sp);
      check_steps_eq (name ^ " par=64") ma mp)
    [
      ("path_30", Generators.path 30);
      ("star_20", Generators.star 20);
      ("gnp_50", Generators.gnp_connected (rng 8) 50 0.1);
    ]

(* Degenerate graphs: the engine must terminate immediately with no
   traffic under both schedulers. *)
let test_empty_and_singleton () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun sched ->
          let states, metrics =
            Distsim.Engine.run ~sched ~model:Distsim.Model.local ~graph:g
              (flood_spec g)
          in
          let label =
            Printf.sprintf "%s/%s" name
              (match sched with `Active -> "active" | `Naive -> "naive")
          in
          check_int (label ^ " states") (Ugraph.n g) (Array.length states);
          check_int (label ^ " messages") 0 metrics.messages;
          check_int (label ^ " bits") 0 metrics.total_bits)
        [ `Active; `Naive ])
    [ ("empty", Ugraph.empty 0); ("singleton", Ugraph.empty 1) ];
  (* The full protocol on the same degenerate graphs. *)
  List.iter
    (fun (name, g) ->
      List.iter
        (fun sched ->
          let r = C.Two_spanner_local.run ~seed:1 ~sched g in
          let label = "protocol " ^ name in
          check_int (label ^ " spanner") 0 (Edge.Set.cardinal r.spanner);
          check_int (label ^ " messages") 0 r.metrics.messages)
        [ `Active; `Naive ])
    [ ("empty", Ugraph.empty 0); ("singleton", Ugraph.empty 1) ]

(* Pool edge cases: shard counts beyond [n], the empty range, and the
   single-vertex graph must all behave — the pool clamps shards, never
   calls the body on an empty range, and the engine produces the same
   result at any [par]. *)
let test_pool_edge_cases () =
  (* Direct pool use: n = 0 hands the body nothing but empty ranges. *)
  let pool = Distsim.Pool.get 4 in
  let indices = Atomic.make 0 in
  Distsim.Pool.run pool ~shards:4 ~n:0 (fun ~lo ~hi ~shard:_ ->
      for _ = lo to hi - 1 do
        Atomic.incr indices
      done);
  check_int "n=0 processes no indices" 0 (Atomic.get indices);
  (* shards > n: the slices still partition [0, n) exactly once. *)
  let n = 3 in
  let hit = Array.make n 0 in
  Distsim.Pool.run pool ~shards:4 ~n (fun ~lo ~hi ~shard:_ ->
      for i = lo to hi - 1 do
        hit.(i) <- hit.(i) + 1
      done);
  check "shards>n covers each index once" true
    (Array.for_all (fun c -> c = 1) hit);
  (* Engine on degenerate graphs at par = 4 (more domains than
     vertices for the singleton, any domains for the empty graph). *)
  List.iter
    (fun (name, g) ->
      let states, metrics =
        Distsim.Engine.run ~par:4 ~model:Distsim.Model.local ~graph:g
          (flood_spec g)
      in
      check_int (name ^ " par=4 states") (Ugraph.n g) (Array.length states);
      check_int (name ^ " par=4 messages") 0 metrics.messages;
      let r = C.Two_spanner_local.run ~seed:1 ~par:4 g in
      check_int (name ^ " par=4 spanner") 0 (Edge.Set.cardinal r.spanner))
    [ ("empty", Ugraph.empty 0); ("singleton", Ugraph.empty 1) ];
  (* par far beyond n on a tiny but nonempty graph agrees with seq. *)
  let g = Generators.path 2 in
  let seq = C.Two_spanner_local.run ~seed:1 g in
  let par = C.Two_spanner_local.run ~seed:1 ~par:4 g in
  check "path_2 par=4 spanner" true
    (Edge.Set.equal seq.spanner par.spanner);
  check "path_2 par=4 metrics" true
    (Distsim.Engine.metrics_deterministic_eq seq.metrics par.metrics)

(* ------------------------------------------------------------------ *)
(* Error-path matrix: every documented engine error surfaces with the
   same exception and message under the sequential active loop, the
   sharded one and the naive reference. Offending sends happen in
   round 1, not at init, so the sharded case raises from its merge. *)

let misbehave ?(forever = false) act =
  {
    Distsim.Engine.init = (fun ~n:_ ~vertex:_ ~neighbors:_ ~out:_ -> ());
    step =
      (fun ~round ~vertex () _ ~out ->
        if round = 1 then act ~vertex out;
        ((), if forever then `Continue else `Done));
    measure = (fun bits -> bits);
  }

(* Vertex 3 sends one [bits]-bit message to [dst] in round 1. *)
let send_from_3 ~dst ~bits =
  misbehave (fun ~vertex out ->
      if vertex = 3 then Distsim.Engine.emit out ~dst bits)

let test_error_matrix () =
  let g = Generators.path 6 in
  let local = Distsim.Model.local in
  let congest = Distsim.Model.congest ~n:6 () in
  let b = Option.get (Distsim.Model.bandwidth congest) in
  let cases =
    [
      ( "non-neighbor",
        Invalid_argument "Engine: vertex 3 sent to non-neighbor 5",
        fun ~sched ~par ->
          ignore
            (Distsim.Engine.run ~sched ~par ~model:local ~graph:g
               (send_from_3 ~dst:5 ~bits:1)) );
      ( "frozen",
        Invalid_argument "Engine: vertex 3 sent to frozen vertex 4",
        fun ~sched ~par ->
          ignore
            (Distsim.Engine.run ~sched ~par ~active:[| 1; 2; 3 |] ~model:local
               ~graph:g
               (send_from_3 ~dst:4 ~bits:1)) );
      ( "strict",
        Distsim.Engine.Congest_violation { src = 3; dst = 4; bits = b + 1 },
        fun ~sched ~par ->
          ignore
            (Distsim.Engine.run ~sched ~par ~strict:true ~model:congest
               ~graph:g
               (send_from_3 ~dst:4 ~bits:(b + 1))) );
      ( "max_rounds",
        Failure "Engine.run: no termination within 5 rounds",
        fun ~sched ~par ->
          ignore
            (Distsim.Engine.run ~sched ~par ~max_rounds:5 ~model:local
               ~graph:g
               (misbehave ~forever:true (fun ~vertex:_ _ -> ()))) );
      ( "active with frugal",
        Invalid_argument "Engine: ?active is incompatible with ?frugal",
        fun ~sched ~par ->
          ignore
            (Distsim.Engine.run ~sched ~par ~active:[| 0; 1 |]
               ~frugal:(Distsim.Frugal.create g) ~model:local ~graph:g
               (send_from_3 ~dst:4 ~bits:1)) );
      ( "frugal for another graph",
        Invalid_argument "Engine: ?frugal value built for a different graph",
        fun ~sched ~par ->
          ignore
            (Distsim.Engine.run ~sched ~par
               ~frugal:(Distsim.Frugal.create (Generators.path 7))
               ~model:local ~graph:g
               (send_from_3 ~dst:4 ~bits:1)) );
      ( "unsorted active",
        Invalid_argument "Engine: ?active must be strictly ascending",
        fun ~sched ~par ->
          ignore
            (Distsim.Engine.run ~sched ~par ~active:[| 2; 1 |] ~model:local
               ~graph:g
               (send_from_3 ~dst:4 ~bits:1)) );
    ]
  in
  List.iter
    (fun (case, exn, run) ->
      List.iter
        (fun (label, sched, par) ->
          Alcotest.check_raises
            (Printf.sprintf "%s / %s" case label)
            exn
            (fun () -> run ~sched ~par))
        [ ("active", `Active, 1); ("active par2", `Active, 2);
          ("naive", `Naive, 1) ])
    cases

(* ------------------------------------------------------------------ *)
(* GC-regression guard: the mailbox hot path must not allocate per
   message. After a warm-up run (which grows the reused inbox/outbox
   banks to their steady-state capacity), repeat runs of a flood on a
   complete graph and demand that the per-run minor-heap allocation
   stays under a budget far below one word per delivered message. A
   regression to per-send list or tuple allocation blows through the
   budget by an order of magnitude. *)

let test_allocation_budget () =
  let g = Generators.complete 48 in
  let spec = flood_spec g in
  (* Sequential, sharded and sparse ([?active] over 40 of the 48
     vertices) runs share one budget: the sharded merge and the slot
     map must not reintroduce per-message allocation either. *)
  List.iter
    (fun (label, run) ->
      (* Warm-up: sizes the engine's internal buffers and triggers any
         one-time allocation (closures, state arrays, the pool). *)
      ignore (run ());
      let _, (m : Distsim.Engine.metrics) = run () in
      check (label ^ " messages flow") true (m.messages > 1000);
      let runs = 5 in
      let before = Gc.minor_words () in
      for _ = 1 to runs do
        ignore (run ())
      done;
      let delta = Gc.minor_words () -. before in
      let per_run = delta /. float_of_int runs in
      (* Steady state still allocates the per-run state array, closures
         and metrics record, but nothing proportional to the ~2256
         messages * rounds of traffic. The budget is generous against
         noise yet an order of magnitude below the list-based cost (one
         3-word block per send plus a (src,msg) tuple per delivery was
         > 5 words/message). *)
      let budget = 20_000.0 in
      if per_run > budget then
        Alcotest.failf
          "%s: mailbox hot path allocates %.0f minor words/run (budget %.0f)"
          label per_run budget;
      (* And the engine's own accounting agrees with the external probe:
         metrics report the same order of allocation. *)
      let _, (m2 : Distsim.Engine.metrics) = run () in
      check (label ^ " metrics expose minor_words") true
        (m2.minor_words >= 0.0);
      check (label ^ " metrics expose allocated_bytes") true
        (m2.allocated_bytes >= 0.0))
    [
      ( "seq",
        fun () -> Distsim.Engine.run ~model:Distsim.Model.local ~graph:g spec
      );
      ( "par2",
        fun () ->
          Distsim.Engine.run ~par:2 ~model:Distsim.Model.local ~graph:g spec );
      ( "active",
        fun () ->
          Distsim.Engine.run ~active:(Array.init 40 Fun.id)
            ~model:Distsim.Model.local ~graph:g spec );
    ]

let test_allocation_metrics_populated () =
  (* The GC fields must be populated (non-zero) for a protocol run —
     protocols allocate state — and excluded from deterministic
     equality. *)
  let g = Generators.caveman (rng 2) 4 6 0.05 in
  let a = C.Two_spanner_local.run ~seed:3 g in
  let b = C.Two_spanner_local.run ~seed:3 g in
  check "protocol run allocates" true (a.metrics.minor_words > 0.0);
  check "allocated_bytes tracks minor words" true
    (a.metrics.allocated_bytes > 0.0);
  check "deterministic equality ignores GC noise" true
    (Distsim.Engine.metrics_deterministic_eq a.metrics b.metrics)

let () =
  Alcotest.run "engine_sched"
    [
      ( "equivalence",
        [
          Alcotest.test_case "local matrix" `Quick test_local_matrix;
          Alcotest.test_case "congest matrix" `Quick test_congest_matrix;
          Alcotest.test_case "weighted matrix" `Quick test_weighted_matrix;
          Alcotest.test_case "flood min" `Quick test_flood_min_both_scheds;
          Alcotest.test_case "send sink per-edge bits" `Quick
            test_send_sink_per_edge;
        ] );
      ( "parallel determinism",
        [
          Alcotest.test_case "local matrix" `Quick test_par_local_matrix;
          Alcotest.test_case "congest matrix" `Quick test_par_congest_matrix;
          Alcotest.test_case "weighted matrix" `Quick test_par_weighted_matrix;
          Alcotest.test_case "mds" `Quick test_par_mds;
          Alcotest.test_case "flood" `Quick test_par_flood;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "empty and singleton" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "pool edge cases" `Quick test_pool_edge_cases;
        ] );
      ( "errors",
        [ Alcotest.test_case "error-path matrix" `Quick test_error_matrix ] );
      ( "allocation",
        [
          Alcotest.test_case "steady-state budget" `Quick
            test_allocation_budget;
          Alcotest.test_case "gc metrics populated" `Quick
            test_allocation_metrics_populated;
        ] );
    ]
