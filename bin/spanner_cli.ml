(* Command-line driver: generate graphs, run the paper's algorithms on
   edge-list files, verify spanners, and print lower-bound curves.

     spanner_cli generate --family caveman --n 100 --seed 1 graph.txt
     spanner_cli span graph.txt --algorithm distributed --dot out.dot
     spanner_cli mds graph.txt
     spanner_cli trace graph.txt --algorithm local --jsonl trace.jsonl
     spanner_cli check graph.txt spanner.txt --k 2
     spanner_cli bounds --n 1000000 --alpha 4 *)

open Grapho
module C = Spanner_core
module L = Lowerbound
open Cmdliner

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let load_graph path = Graph_io.of_edge_list (read_file path)

(* ---- generate ---------------------------------------------------- *)

let generate family n p seed out =
  let rng = Rng.create seed in
  let g =
    match family with
    | "gnp" -> Generators.gnp_connected rng n p
    | "complete" -> Generators.complete n
    | "bipartite" -> Generators.complete_bipartite (n / 2) (n - (n / 2))
    | "grid" ->
        let side = int_of_float (Float.sqrt (float_of_int n)) in
        Generators.grid side side
    | "caveman" -> Generators.caveman_n rng n 0.05
    | "pa" -> Generators.preferential_attachment rng n (max 2 (int_of_float p))
    | "tree" -> Generators.random_tree rng n
    | "ladder" -> Generators.clique_ladder rng n
    | other -> failwith (Printf.sprintf "unknown family %S" other)
  in
  let text = Graph_io.to_edge_list g in
  (match out with
  | Some path ->
      write_file path text;
      Printf.printf "wrote %s: n=%d m=%d\n" path (Ugraph.n g) (Ugraph.m g)
  | None ->
      print_string text;
      (* the actual size goes to stderr so the edge list stays pipeable *)
      Printf.eprintf "generated: n=%d m=%d\n" (Ugraph.n g) (Ugraph.m g));
  0

let family_arg =
  let doc =
    "Graph family: gnp, complete, bipartite, grid, caveman, pa, tree, ladder."
  in
  Arg.(value & opt string "gnp" & info [ "family" ] ~docv:"FAMILY" ~doc)

let n_arg = Arg.(value & opt int 100 & info [ "vertices"; "n" ] ~docv:"N" ~doc:"Vertices.")

let p_arg =
  Arg.(value & opt float 0.1
       & info [ "prob"; "p" ] ~docv:"P" ~doc:"Edge probability (or degree for pa).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let out_arg =
  Arg.(value & pos 0 (some string) None
       & info [] ~docv:"FILE" ~doc:"Output file (stdout if omitted).")

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a graph as an edge list.")
    Term.(const generate $ family_arg $ n_arg $ p_arg $ seed_arg $ out_arg)

(* ---- engine knobs (span / mds / trace) --------------------------- *)

let sched_conv : Distsim.Engine.sched Arg.conv =
  let parse = function
    | "active" -> Ok `Active
    | "naive" -> Ok `Naive
    | s -> Error (`Msg (Printf.sprintf "unknown scheduler %S (active|naive)" s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with `Active -> "active" | `Naive -> "naive")
  in
  Arg.conv (parse, print)

let sched_arg =
  Arg.(value & opt sched_conv `Active
       & info [ "sched" ] ~docv:"SCHED"
           ~doc:"Engine scheduler: active (event-driven, default) or naive \
                 (step-everyone reference). Results are bit-identical.")

let par_arg =
  Arg.(value & opt int 1
       & info [ "par" ] ~docv:"N"
           ~doc:"Domains used to step each round (active scheduler only). \
                 Results are bit-identical for any N.")

let schedule_conv : Distsim.Faults.schedule Arg.conv =
  let parse s =
    match Distsim.Faults.parse s with
    | Ok sch -> Ok sch
    | Error e -> Error (`Msg e)
  in
  let print ppf s = Format.pp_print_string ppf (Distsim.Faults.to_string s) in
  Arg.conv (parse, print)

let schedule_arg =
  Arg.(value & opt schedule_conv Distsim.Faults.empty
       & info [ "schedule" ] ~docv:"DSL"
           ~doc:"Deterministic fault schedule, comma-separated clauses: \
                 drop=P (per-message loss), dup=P (duplication), \
                 crash=F\\@rR (crash-stop a fraction F of the vertices at \
                 round R) or crash=vID\\@rR (a specific vertex), \
                 cut=U-V\\@rA..B (link down during rounds A..B; omit ..B \
                 for permanent), seed=S. Same schedule + seed = the same \
                 faulted execution, for any scheduler and --par.")

let retry_arg =
  Arg.(value & opt int 1
       & info [ "retry" ] ~docv:"K"
           ~doc:"Bounded retransmit: send every message K times, keep the \
                 first copy per source (1 = off). A drop-p adversary then \
                 loses a message only with probability p^K.")

let frugal_arg =
  Arg.(value & opt ~vopt:"on" string "off"
       & info [ "frugal" ] ~docv:"MODE"
           ~doc:"Message-frugality layer: off (default), on, or auto. Under \
                 on, identical consecutive re-sends are suppressed behind \
                 2-bit silence markers and whole-neighborhood broadcasts \
                 route through deterministic collection trees. Under auto, \
                 per-edge suppression first observes a few rounds at full \
                 charge and arms only if payload repeats are long enough to \
                 beat the marker overhead — chunked CONGEST traffic thereby \
                 never pays for markers it cannot amortize. The protocol's \
                 output, round count and every logical metric are \
                 bit-identical in all modes; only the physical wire stream \
                 (metrics sent_physical / sent_bits) changes. A bare \
                 --frugal means --frugal=on.")

let frugal_of g mode =
  match mode with
  | "off" -> None
  | "on" -> Some (Distsim.Frugal.create g)
  | "auto" ->
      Some
        (Distsim.Frugal.create
           ~mode:(Distsim.Frugal.Auto Distsim.Frugal.default_auto_window)
           g)
  | other ->
      failwith (Printf.sprintf "unknown frugal mode %S (off|on|auto)" other)

(* The physical-vs-logical summary, printed only under --frugal (the
   default output stays byte-identical with and without the layer). *)
let frugal_line (m : Distsim.Engine.metrics) =
  let ratio a b =
    if b > 0 then float_of_int a /. float_of_int (max 1 b) else 1.0
  in
  Printf.printf
    "physical: messages=%d of %d (%.2fx fewer), bits=%d of %d (%.2fx)\n"
    m.Distsim.Engine.sent_physical m.messages
    (ratio m.messages m.sent_physical)
    m.sent_bits m.total_bits
    (ratio m.total_bits m.sent_bits)

(* The event-driven scheduler's saving, printed next to the round
   count: the naive path would have activated every vertex every round
   ([n * (rounds + 1)] including init). *)
let steps_line (m : Distsim.Engine.metrics) ~n =
  let naive = n * (m.rounds + 1) in
  let saved =
    if naive > 0 then
      100.0 *. (1.0 -. (float_of_int m.steps /. float_of_int naive))
    else 0.0
  in
  Printf.printf "steps=%d of naive %d (%.1f%% saved)\n" m.steps naive saved

(* ---- span -------------------------------------------------------- *)

let span file algorithm k seed sched par frugal dot weights_file faults =
  let g = load_graph file in
  let rng = Rng.create seed in
  (if frugal <> "off" then
     match algorithm with
     | "local" | "congest" -> ()
     | other ->
         failwith
           (Printf.sprintf
              "--frugal applies to the message-passing algorithms \
               (local|congest), not %S"
              other));
  let frugal = frugal_of g frugal in
  let weights =
    Option.map (fun p -> snd (Graph_io.weighted_of_edge_list (read_file p)))
      weights_file
  in
  let spanner, label =
    match algorithm with
    | "distributed" ->
        if k <> 2 then failwith "the distributed algorithm targets k=2";
        let r = C.Two_spanner.run ~rng g in
        Printf.printf "iterations=%d rounds=%d stars=%d\n" r.iterations
          r.rounds r.stars_added;
        (r.spanner, "distributed (Thm 1.3)")
    | "local" ->
        if k <> 2 then failwith "the LOCAL protocol targets k=2";
        let r = C.Two_spanner_local.run ~seed ~sched ~par ?frugal g in
        Printf.printf "iterations=%d rounds=%d messages=%d\n" r.iterations
          r.metrics.rounds r.metrics.messages;
        steps_line r.metrics ~n:(Ugraph.n g);
        if frugal <> None then frugal_line r.metrics;
        (r.spanner, "message-passing LOCAL protocol")
    | "congest" ->
        if k <> 2 then failwith "the CONGEST port targets k=2";
        let r = C.Two_spanner_local.run_congest ~seed ~sched ~par ?frugal g in
        Printf.printf
          "iterations=%d rounds=%d max-message=%d bits violations=%d\n"
          r.iterations r.metrics.rounds r.metrics.max_message_bits
          r.metrics.congest_violations;
        steps_line r.metrics ~n:(Ugraph.n g);
        if frugal <> None then frugal_line r.metrics;
        (r.spanner, "chunked CONGEST port (Section 1.3)")
    | "weighted" ->
        if k <> 2 then failwith "the weighted algorithm targets k=2";
        let w =
          match weights with
          | Some w -> w
          | None -> failwith "--weights FILE required for weighted"
        in
        let r = C.Weighted_two_spanner.run ~rng g w in
        Printf.printf "cost=%g iterations=%d\n" r.cost r.iterations;
        (r.spanner, "weighted distributed (Thm 4.12)")
    | "fault-tolerant" ->
        if k <> 2 then failwith "fault tolerance targets k=2";
        let r = C.Fault_tolerant.greedy g ~f:faults in
        Printf.printf "stars=%d single-batches=%d (f=%d)\n" r.stars_added
          r.singles_added faults;
        (r.spanner, Printf.sprintf "%d-fault-tolerant greedy" faults)
    | "greedy" ->
        if k <> 2 then failwith "the greedy algorithm targets k=2";
        ((C.Kp_greedy.run g).spanner, "Kortsarz-Peleg greedy")
    | "exact" ->
        (match
           C.Exact.min_k_spanner ~targets:(Ugraph.edge_set g)
             ~usable:(Ugraph.edge_set g) ~n:(Ugraph.n g) ~k ()
         with
        | Some s -> (s, "exact (branch & bound)")
        | None -> failwith "no spanner (impossible)")
    | "baswana-sen" ->
        let bs_k = max 1 ((k + 1) / 2) in
        let r = C.Baswana_sen.run ~rng ~k:bs_k g in
        (r.spanner, Printf.sprintf "Baswana-Sen (stretch %d)" ((2 * bs_k) - 1))
    | "epsilon" ->
        let r = C.Epsilon_spanner.run ~rng ~epsilon:0.25 ~k g in
        (r.spanner, "(1+eps) via network decomposition (Thm 1.2)")
    | other -> failwith (Printf.sprintf "unknown algorithm %S" other)
  in
  let valid =
    if algorithm = "fault-tolerant" then
      C.Fault_tolerant.is_ft_2_spanner g ~f:faults spanner
    else C.Spanner_check.is_spanner g spanner ~k
  in
  Printf.printf "%s: %d / %d edges, valid: %b\n" label
    (Edge.Set.cardinal spanner) (Ugraph.m g) valid;
  (match dot with
  | Some path ->
      write_file path (Graph_io.to_dot ~highlight:spanner g);
      Printf.printf "wrote %s\n" path
  | None -> ());
  0

let file_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"GRAPH" ~doc:"Edge-list file.")

let algorithm_arg =
  let doc =
    "Algorithm: distributed, local, congest, weighted, fault-tolerant, \
     greedy, exact, baswana-sen, epsilon."
  in
  Arg.(value & opt string "distributed"
       & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc)

let k_arg = Arg.(value & opt int 2 & info [ "stretch"; "k" ] ~docv:"K" ~doc:"Stretch.")

let dot_arg =
  Arg.(value & opt (some string) None
       & info [ "dot" ] ~docv:"FILE" ~doc:"Write a Graphviz rendering.")

let weights_arg =
  Arg.(value & opt (some file) None
       & info [ "weights" ] ~docv:"FILE"
           ~doc:"Weighted edge list (u v w lines) for -a weighted.")

let faults_arg =
  Arg.(value & opt int 1
       & info [ "faults"; "f" ] ~docv:"F"
           ~doc:"Fault budget for -a fault-tolerant.")

let span_cmd =
  Cmd.v
    (Cmd.info "span" ~doc:"Approximate a minimum k-spanner.")
    Term.(const span $ file_arg $ algorithm_arg $ k_arg $ seed_arg $ sched_arg
          $ par_arg $ frugal_arg $ dot_arg $ weights_arg $ faults_arg)

(* ---- mds --------------------------------------------------------- *)

let mds file seed sched par frugal =
  let g = load_graph file in
  let frugal = frugal_of g frugal in
  let r = C.Mds.run ~rng:(Rng.create seed) ~sched ~par ?frugal g in
  Printf.printf
    "dominating set of %d vertices (greedy: %d), %d CONGEST rounds,\n\
     max message %d bits, violations %d\n"
    (List.length r.dominating_set)
    (List.length (C.Mds.greedy g))
    r.metrics.rounds r.metrics.max_message_bits
    r.metrics.congest_violations;
  steps_line r.metrics ~n:(Ugraph.n g);
  if frugal <> None then frugal_line r.metrics;
  Printf.printf "members: %s\n"
    (String.concat " " (List.map string_of_int r.dominating_set));
  0

let mds_cmd =
  Cmd.v
    (Cmd.info "mds" ~doc:"Approximate a minimum dominating set in CONGEST.")
    Term.(const mds $ file_arg $ seed_arg $ sched_arg $ par_arg $ frugal_arg)

(* ---- faults ------------------------------------------------------ *)

let faults file protocol schedule retry seed sched par =
  let g = load_graph file in
  let protocol =
    match protocol with
    | "local" -> C.Resilience.Spanner_local
    | "congest" -> C.Resilience.Spanner_congest
    | "mds" -> C.Resilience.Mds
    | other ->
        failwith (Printf.sprintf "unknown protocol %S (local|congest|mds)" other)
  in
  let r = C.Resilience.run ~seed ~retry ~sched ~par ~protocol ~schedule g in
  Format.printf "%a@." C.Resilience.pp_report r;
  if r.C.Resilience.valid then 0 else 1

let fault_protocol_arg =
  let doc = "Protocol to stress: local, congest, mds." in
  Arg.(value & opt string "local" & info [ "protocol"; "P" ] ~docv:"PROTO" ~doc)

let faults_cmd =
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run a protocol under a deterministic fault schedule (crashes, \
             link cuts, message loss/duplication) and grade the survivors: \
             rounds to termination, message/drop counts, and whether the \
             surviving output still 2-spans (resp. dominates) the surviving \
             subgraph, at what stretch. Exits 0 iff the survivors pass.")
    Term.(const faults $ file_arg $ fault_protocol_arg $ schedule_arg
          $ retry_arg $ seed_arg $ sched_arg $ par_arg)

(* ---- trace ------------------------------------------------------- *)

module T = Distsim.Trace

(* Shared protocol dispatch for the trace and profile subcommands:
   run [algorithm] with the given sink and profile, print its
   one-line result summary, return the engine metrics. *)
let run_traced ~algorithm ~seed ~sched ~par ~adversary ~frugal ~retry
    ~weights_file ~sink ~profile g =
  match algorithm with
  | "local" ->
      let r =
        C.Two_spanner_local.run ~seed ~sched ~par ?adversary ?frugal ~retry
          ~profile ~trace:sink g
      in
      Printf.printf "local 2-spanner: %d / %d edges, %d iterations\n"
        (Edge.Set.cardinal r.spanner) (Ugraph.m g) r.iterations;
      r.metrics
  | "congest" ->
      let r =
        C.Two_spanner_local.run_congest ~seed ~sched ~par ?adversary ?frugal
          ~retry ~profile ~trace:sink g
      in
      Printf.printf "CONGEST 2-spanner: %d / %d edges, %d iterations\n"
        (Edge.Set.cardinal r.spanner) (Ugraph.m g) r.iterations;
      r.metrics
  | "weighted" ->
      let w =
        match weights_file with
        | Some p -> snd (Graph_io.weighted_of_edge_list (read_file p))
        | None -> Weights.uniform 1.0
      in
      let r =
        C.Two_spanner_local.run_weighted ~seed ~sched ~par ?adversary ?frugal
          ~retry ~profile ~trace:sink g w
      in
      Printf.printf "weighted 2-spanner: %d / %d edges, %d iterations\n"
        (Edge.Set.cardinal r.spanner) (Ugraph.m g) r.iterations;
      r.metrics
  | "mds" ->
      let r =
        C.Mds.run ~rng:(Rng.create seed) ~sched ~par ?adversary ?frugal ~retry
          ~profile ~trace:sink g
      in
      Printf.printf "dominating set: %d vertices, %d iterations\n"
        (List.length r.dominating_set) r.iterations;
      r.metrics
  | other -> failwith (Printf.sprintf "unknown algorithm %S" other)

let trace file algorithm seed sched par frugal schedule retry jsonl_file
    weights_file limit gc times physical =
  let g = load_graph file in
  let frugal = frugal_of g frugal in
  let st = T.stats () in
  let prof = Distsim.Profile.create () in
  let jsonl_oc = Option.map open_out jsonl_file in
  let sink =
    let stats = T.stats_sink st in
    match jsonl_oc with
    | None -> stats
    | Some oc -> T.tee stats (T.jsonl oc)
  in
  let adversary =
    if Distsim.Faults.is_empty schedule then None
    else Some (Distsim.Faults.compile ~n:(Ugraph.n g) schedule)
  in
  let metrics =
    run_traced ~algorithm ~seed ~sched ~par ~adversary ~frugal ~retry
      ~weights_file ~sink ~profile:prof g
  in
  Option.iter close_out jsonl_oc;
  let s = T.series st in
  let rows = s.T.rounds in
  let total = Array.length rows in
  (* [--gc] appends a minor-words column; off by default because GC
     pressure is per-run/per-domain noise, and the default output must
     stay byte-identical between seq and --par runs (scripts/check.sh
     diffs them). *)
  Printf.printf "%6s %9s %10s %9s %8s %6s %6s %7s %6s%s%s\n" "round" "msgs"
    "bits" "max-bits" "stepped" "done" "viol" "dropped" "crash"
    (if physical then "  physical" else "")
    (if gc then "   minor-w" else "");
  let print_row (r : T.round_stat) =
    Printf.printf "%6d %9d %10d %9d %8d %6d %6d %7d %6d" r.round r.messages
      r.bits r.max_bits r.vertices_stepped r.vertices_done
      r.congest_violations r.dropped r.crashed;
    if physical then Printf.printf " %9d" r.physical;
    if gc then Printf.printf " %9d" r.minor_words;
    print_newline ()
  in
  let limit = max 2 limit in
  if total <= limit then Array.iter print_row rows
  else begin
    let head = limit - (limit / 2) in
    let tail = limit / 2 in
    Array.iteri (fun i r -> if i < head then print_row r) rows;
    Printf.printf "  ...  (%d rounds elided)\n" (total - limit);
    Array.iteri (fun i r -> if i >= total - tail then print_row r) rows
  end;
  (match s.T.phases with
  | [] -> ()
  | phases ->
      Printf.printf "phases: %s\n"
        (String.concat ", "
           (List.map (fun (name, k) -> Printf.sprintf "%s=%d" name k) phases)));
  (match s.T.counters with
  | [] -> ()
  | counters ->
      Printf.printf "counters: %s\n"
        (String.concat ", "
           (List.map (fun (name, v) -> Printf.sprintf "%s=%g" name v) counters)));
  (* Histogram percentiles from the installed profile. Message bits
     and inbox sizes are deterministic (identical across schedulers
     and --par, like the table above); round times are wall-clock
     noise, so they hide behind [--times] the way GC hides behind
     [--gc]. *)
  let bh = Distsim.Profile.message_bits prof in
  let ih = Distsim.Profile.inbox_sizes prof in
  let pct h p = Distsim.Histogram.percentile h p in
  Printf.printf "msg-bits: p50=%d p90=%d p99=%d max=%d\n" (pct bh 0.50)
    (pct bh 0.90) (pct bh 0.99) (Distsim.Histogram.max_value bh);
  Printf.printf "inbox: p50=%d p99=%d max=%d\n" (pct ih 0.50) (pct ih 0.99)
    (Distsim.Histogram.max_value ih);
  if times then begin
    let rh = Distsim.Profile.round_times prof in
    Printf.printf "round-ns: p50=%d p90=%d p99=%d max=%d\n" (pct rh 0.50)
      (pct rh 0.90) (pct rh 0.99)
      (Distsim.Histogram.max_value rh)
  end;
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 rows in
  let msgs = sum (fun (r : T.round_stat) -> r.messages) in
  let bits = sum (fun (r : T.round_stat) -> r.bits) in
  let stepped = sum (fun (r : T.round_stat) -> r.vertices_stepped) in
  let phys = sum (fun (r : T.round_stat) -> r.physical) in
  let ok =
    msgs = metrics.Distsim.Engine.messages
    && bits = metrics.total_bits
    && stepped = metrics.steps
    && total = metrics.rounds + 1
    && phys = metrics.sent_physical
  in
  steps_line metrics ~n:(Ugraph.n g);
  if frugal <> None then frugal_line metrics;
  if gc then
    Printf.printf "gc: minor_words=%.0f allocated_bytes=%.0f\n"
      metrics.Distsim.Engine.minor_words
      metrics.Distsim.Engine.allocated_bytes;
  Printf.printf
    "reconcile: rounds=%d messages=%d bits=%d steps=%d — %s the engine metrics\n"
    metrics.rounds msgs bits stepped
    (if ok then "match" else "MISMATCH with");
  (match jsonl_file with
  | Some p -> Printf.printf "wrote %s\n" p
  | None -> ());
  if ok then 0 else 1

let trace_algorithm_arg =
  let doc = "Algorithm to trace: local, congest, weighted, mds." in
  Arg.(value & opt string "local" & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc)

let jsonl_arg =
  Arg.(value & opt (some string) None
       & info [ "jsonl" ] ~docv:"FILE"
           ~doc:"Also stream the full event trace (JSON Lines) to FILE.")

let limit_arg =
  Arg.(value & opt int 40
       & info [ "limit" ] ~docv:"K"
           ~doc:"Show at most K rows of the per-round table (head and tail).")

let gc_arg =
  Arg.(value & flag
       & info [ "gc" ]
           ~doc:"Append a per-round minor-words column and print the run's \
                 GC totals. Off by default: GC pressure varies run to run \
                 (and per domain under --par), so the default output stays \
                 byte-comparable across schedulers and domain counts.")

let physical_arg =
  Arg.(value & flag
       & info [ "physical" ]
           ~doc:"Append a per-round physical-messages column (wire messages \
                 actually charged; equals msgs on a plain run, the reduced \
                 stream under --frugal). Deterministic like msgs, but off by \
                 default so the default table stays byte-identical between \
                 plain and --frugal runs (scripts/check.sh diffs them).")

let times_arg =
  Arg.(value & flag
       & info [ "times" ]
           ~doc:"Also print round-time percentiles (round-ns line). Off by \
                 default for the same reason as --gc: wall-clock durations \
                 vary run to run, and the default output must stay \
                 byte-comparable across schedulers and domain counts.")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a protocol under a structured trace and print per-round \
             statistics, phase-marker counts, counters and message-size \
             percentiles; the summary line cross-checks the per-round sums \
             against the engine metrics.")
    Term.(const trace $ file_arg $ trace_algorithm_arg $ seed_arg $ sched_arg
          $ par_arg $ frugal_arg $ schedule_arg $ retry_arg $ jsonl_arg
          $ weights_arg $ limit_arg $ gc_arg $ times_arg $ physical_arg)

(* ---- profile ----------------------------------------------------- *)

let profile file algorithm seed sched par frugal schedule retry weights_file
    chrome =
  let g = load_graph file in
  let frugal = frugal_of g frugal in
  let prof = Distsim.Profile.create () in
  let sink = Distsim.Profile.sink prof in
  let adversary =
    if Distsim.Faults.is_empty schedule then None
    else Some (Distsim.Faults.compile ~n:(Ugraph.n g) schedule)
  in
  let metrics =
    run_traced ~algorithm ~seed ~sched ~par ~adversary ~frugal ~retry
      ~weights_file ~sink ~profile:prof g
  in
  let ms ns = float_of_int ns /. 1e6 in
  Printf.printf "rounds=%d messages=%d faults=%d wall=%.3f ms\n"
    (Distsim.Profile.rounds_profiled prof)
    metrics.Distsim.Engine.messages
    (Distsim.Profile.fault_count prof)
    (ms (Distsim.Profile.total_ns prof));
  if frugal <> None then frugal_line metrics;
  (* Per-phase wall-clock breakdown, in first-appearance order. *)
  (match Distsim.Profile.phase_breakdown prof with
  | [] -> ()
  | rows ->
      let total =
        List.fold_left
          (fun acc (r : Distsim.Profile.phase_row) -> acc + r.total_ns)
          0 rows
      in
      Printf.printf "%-14s %7s %12s %7s\n" "phase" "rounds" "ms" "share";
      List.iter
        (fun (r : Distsim.Profile.phase_row) ->
          let share =
            if total > 0 then
              100.0 *. float_of_int r.total_ns /. float_of_int total
            else 0.0
          in
          Printf.printf "%-14s %7d %12.3f %6.1f%%\n" r.phase r.occurrences
            (ms r.total_ns) share)
        rows);
  let line name h =
    Format.printf "%s: %a@." name Distsim.Histogram.pp_summary h
  in
  line "msg-bits" (Distsim.Profile.message_bits prof);
  line "inbox" (Distsim.Profile.inbox_sizes prof);
  line "round-ns" (Distsim.Profile.round_times prof);
  (* Shard step vs serial-merge split, --par > 1 only. *)
  let shards = Distsim.Profile.shard_ns prof in
  if Array.length shards > 0 then begin
    Printf.printf "shards:";
    Array.iteri (fun i ns -> Printf.printf " s%d=%.3fms" i (ms ns)) shards;
    Printf.printf " merge=%.3fms\n" (ms (Distsim.Profile.merge_ns prof))
  end;
  (match chrome with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Distsim.Profile.write_chrome prof oc;
      close_out oc;
      Printf.printf
        "wrote %s (%d events) — load at ui.perfetto.dev or chrome://tracing\n"
        path
        (Distsim.Profile.chrome_event_count prof));
  0

let chrome_arg =
  Arg.(value & opt (some string) None
       & info [ "chrome" ] ~docv:"FILE"
           ~doc:"Write the profile as Chrome trace_event JSON, loadable in \
                 Perfetto (ui.perfetto.dev) or chrome://tracing: rounds, \
                 phases, shard stepping and serial merges as duration \
                 events, fault injections as instants.")

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a protocol under the wall-clock profiler and print a \
             per-phase time breakdown, message-size / inbox / round-time \
             histograms, and (under --par) the shard-step vs serial-merge \
             split. --chrome FILE exports a Perfetto-loadable trace. \
             Profiling is observational: the simulated execution is \
             bit-identical with and without it.")
    Term.(const profile $ file_arg $ trace_algorithm_arg $ seed_arg
          $ sched_arg $ par_arg $ frugal_arg $ schedule_arg $ retry_arg
          $ weights_arg $ chrome_arg)

(* ---- churn ------------------------------------------------------- *)

let churn file ticks rate seed sched par schedule retry recompute =
  let g0 = load_graph file in
  if ticks < 1 then failwith "--ticks must be >= 1";
  if rate <= 0.0 || rate >= 1.0 then failwith "--rate must be in (0, 1)";
  let replace =
    max 1 (int_of_float (rate *. float_of_int (Ugraph.m g0)))
  in
  let now () = Unix.gettimeofday () in
  let t0 = now () in
  let inc, base = C.Incremental.bootstrap ~seed ~sched ~par g0 in
  let bootstrap_ms = 1000.0 *. (now () -. t0) in
  Printf.printf
    "bootstrap: n=%d m=%d spanner=%d/%d rounds=%d (%.1f ms); churn \
     replaces %d edges/tick (rate %g)\n"
    (Ugraph.n g0) (Ugraph.m g0)
    (Edge.Set.cardinal base.C.Two_spanner_local.spanner)
    (Ugraph.m g0) base.C.Two_spanner_local.metrics.rounds bootstrap_ms
    replace rate;
  let churn_rng = Rng.create (seed lxor 0x6A7A) in
  let adversary =
    if Distsim.Faults.is_empty schedule then None
    else begin
      Printf.printf "faults: %s (retry %d) on every repair run\n"
        (Distsim.Faults.to_string schedule) retry;
      Some (Distsim.Faults.compile ~n:(Ugraph.n g0) schedule)
    end
  in
  let d = Ugraph.Delta.create () in
  Printf.printf "%5s %5s %5s %6s %6s %6s %9s%s %9s %6s\n" "tick" "del"
    "ins" "seeds" "broken" "dirty" "repair"
    (if recompute then "   recomp  speedup" else "")
    "spanner" "valid";
  let all_valid = ref true in
  let sum_repair = ref 0.0 and sum_recomp = ref 0.0 in
  for _ = 1 to ticks do
    C.Incremental.churn ~rng:churn_rng ~replace (C.Incremental.graph inc) d;
    let t1 = now () in
    let st = C.Incremental.apply ~sched ~par ?adversary ~retry inc d in
    let repair_ms = 1000.0 *. (now () -. t1) in
    sum_repair := !sum_repair +. repair_ms;
    let valid = C.Incremental.valid inc in
    if not valid then all_valid := false;
    Printf.printf "%5d %5d %5d %6d %6d %6d %7.1fms" st.tick st.deleted
      st.inserted st.seeds st.broken st.dirty repair_ms;
    if recompute then begin
      let g = C.Incremental.graph inc in
      let t2 = now () in
      let r = C.Two_spanner_local.run ~seed ~sched ~par g in
      let recomp_ms = 1000.0 *. (now () -. t2) in
      sum_recomp := !sum_recomp +. recomp_ms;
      ignore r.C.Two_spanner_local.spanner;
      Printf.printf " %7.1fms %7.1fx" recomp_ms
        (recomp_ms /. Float.max repair_ms 1e-6)
    end;
    Printf.printf " %9d %6b\n" st.spanner_size valid
  done;
  Printf.printf "ticks=%d mean repair=%.1f ms%s all-valid=%b\n" ticks
    (!sum_repair /. float_of_int ticks)
    (if recompute then
       Printf.sprintf " mean recompute=%.1f ms mean speedup=%.1fx"
         (!sum_recomp /. float_of_int ticks)
         (!sum_recomp /. Float.max !sum_repair 1e-6)
     else "")
    !all_valid;
  if !all_valid then 0 else 1

let ticks_arg =
  Arg.(value & opt int 10
       & info [ "ticks" ] ~docv:"T" ~doc:"Churn ticks to apply.")

let rate_arg =
  Arg.(value & opt float 0.01
       & info [ "rate" ] ~docv:"R"
           ~doc:"Fraction of the edges replaced per tick (that many uniform \
                 deletions plus that many uniform insertions), at least one \
                 of each.")

let recompute_arg =
  Arg.(value & flag
       & info [ "recompute" ]
           ~doc:"After every repaired tick, also run the full protocol from \
                 scratch on the updated graph and report per-tick recompute \
                 time and speedup.")

let churn_cmd =
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Maintain a 2-spanner under seeded edge churn: bootstrap with \
             the full LOCAL protocol, then per tick replace a fraction of \
             the edges (batched CSR delta), find the certificates the \
             update broke, and re-run the protocol only on the dirty ball \
             around them. Prints per-tick repair statistics and a validity \
             verdict; exits 0 iff the maintained spanner was valid after \
             every tick. --recompute adds a full-recompute baseline and \
             speedup column. --schedule subjects every repair run to a \
             deterministic fault schedule (churn + drops simultaneously); \
             validity is then a per-tick verdict, not a guarantee.")
    Term.(const churn $ file_arg $ ticks_arg $ rate_arg $ seed_arg
          $ sched_arg $ par_arg $ schedule_arg $ retry_arg $ recompute_arg)

(* ---- check ------------------------------------------------------- *)

let check file spanner_file k =
  let g = load_graph file in
  let s = Ugraph.edge_set (load_graph spanner_file) in
  let ok = C.Spanner_check.is_spanner_of_targets ~n:(Ugraph.n g)
      ~targets:(Ugraph.edge_set g) s ~k
  in
  Printf.printf "%s is %sa valid %d-spanner of %s\n" spanner_file
    (if ok then "" else "NOT ")
    k file;
  if ok then 0 else 1

let spanner_file_arg =
  Arg.(required & pos 1 (some file) None
       & info [] ~docv:"SPANNER" ~doc:"Candidate spanner edge list.")

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"Verify a candidate k-spanner.")
    Term.(const check $ file_arg $ spanner_file_arg $ k_arg)

(* ---- bounds ------------------------------------------------------ *)

let bounds n alpha =
  Printf.printf "round lower bounds at n=%d, alpha=%.1f:\n" n alpha;
  Printf.printf "  directed k>=5, randomized (Thm 1.1): %.1f\n"
    (L.Bounds.thm_1_1_randomized ~n ~alpha);
  Printf.printf "  directed k>=5, deterministic (Thm 2.8): %.1f\n"
    (L.Bounds.thm_2_8_deterministic ~n ~alpha);
  Printf.printf "  weighted directed k>=4 (Thm 2.9): %.1f\n"
    (L.Bounds.thm_2_9_weighted_directed ~n);
  Printf.printf "  weighted undirected, k=4 (Thm 2.10): %.1f\n"
    (L.Bounds.thm_2_10_weighted_undirected ~n ~k:4);
  Printf.printf "  exact weighted 2-spanner, CONGEST (Thm 3.5): %.0f\n"
    (L.Bounds.thm_3_5_exact_congest ~n);
  0

let alpha_arg =
  Arg.(value & opt float 1.0
       & info [ "alpha" ] ~docv:"ALPHA" ~doc:"Approximation ratio.")

let bound_n_arg =
  Arg.(value & opt int 1_000_000 & info [ "vertices"; "n" ] ~docv:"N" ~doc:"Vertices.")

let bounds_cmd =
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print the paper's lower-bound curves.")
    Term.(const bounds $ bound_n_arg $ alpha_arg)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "spanner_cli" ~version:"1.0"
      ~doc:"Distributed spanner approximation (Censor-Hillel & Dory, PODC 2018)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            generate_cmd;
            span_cmd;
            mds_cmd;
            faults_cmd;
            churn_cmd;
            trace_cmd;
            profile_cmd;
            check_cmd;
            bounds_cmd;
          ]))
