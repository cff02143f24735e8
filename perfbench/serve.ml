(* The socket workloads: spannerd as a user sees it.

   Both spawn the daemon and LOADFILE an edge list the benchmark writes, of
   caveman_n 10^4 0.1 (m ~ 36k; the spanner keeps ~61% of it over two
   protocol iterations, where p = 0.05 often finishes in one). The
   query mix is 90% endpoints of a random graph edge, whose answer is
   at most 2 hops, so per-request wire and loop cost dominates, and
   10% uniform pairs, which cost a near-full BFS: the median measures
   the request path and p99 the BFS kernel.

   serve_query: two connections of closed-loop QUERY traffic; the
   engine and the oracle work only at set-up. The timed operation is
   a QUERY round trip.

   serve_churn: the same daemon and graph, loaded afresh, under an
   open-loop schedule on two connections: QUERY at a fixed rate and
   CHURN batches (~0.05% of m each) at a fixed tick rate, both timed
   from their scheduled send time. A tick costs O(m) whatever its
   size and blocks the daemon's single select loop, so reads queue
   behind writes; a closed-loop reader would record only one slow
   sample per stall. The timed operation is the CHURN ack; the reads'
   latency under it is reported beside it. The rates keep the daemon
   well below saturation, and a run whose generator fell behind or
   whose backlog grew is rejected. *)

open Grapho
open Common
module C = Spanner_core
module S = Perfkit.Stats
module W = Spannernet.Wire
module Netbuf = Spannernet.Netbuf
module Service = Spannernet.Service
module Conn = Spannernet.Daemon.Conn

(* The served graph is one fixed fixture, whatever the seed: the
   socket workloads measure serving, and the seed varies the request
   and churn streams. *)
let n = 10_000
let p_rewire = 0.1
let graph_seed = 1
let setups = 9

(* The vote seed spannerd bootstraps a LOADFILE graph with; the
   in-process replica must use it to reproduce the daemon's spanner. *)
let load_seed = 0x2D5F1

let query_rate = 500.0 (* serve_churn QUERY/s *)
let tick_rate = 10.0 (* serve_churn CHURN/s *)
let replace = 18 (* deletions (and as many insertions) per tick *)
let replayed = 10_000 (* queries the traced pass replays in-process *)
(* A send may leave late when the host deschedules the generator;
   such hiccups reach ~10 ms at the tail and do not accumulate, while
   a generator that cannot keep up falls further behind every send. *)
let late_limit_ms = 20.0
let reply_timeout = 30.0

(* ---- daemon and connections ------------------------------------- *)

let spannerd () =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "spannerd.exe"))

let live = ref []

(* Kill and reap every daemon still running; the CLI calls this on
   every exit path. *)
let reap () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

type conn = { fd : Unix.file_descr; buf : Netbuf.t }

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd TCP_NODELAY true;
  { fd; buf = Netbuf.create () }

let send c req =
  let s = W.print_request req ^ "\n" in
  let len = String.length s in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write_substring c.fd s !sent (len - !sent)
  done

(* Read whatever the socket holds; false on end of stream. *)
let fill c =
  match Netbuf.read_from_fd c.buf c.fd with
  | `Eof -> false
  | `Data _ | `Again -> true

let rec recv c =
  match Netbuf.take_line c.buf with
  | Some line -> W.parse_reply line
  | None -> if fill c then recv c else Error "daemon closed the connection"

let request c req =
  send c req;
  recv c

type daemon = { pid : int; port : int; ctl : conn }

let spawn k =
  let exe = spannerd () in
  let port_file = scratch_file (Printf.sprintf "port%d" k) in
  let null = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "--port"; "0"; "--port-file"; port_file |]
      null null null
  in
  Unix.close null;
  live := pid :: !live;
  let deadline = now () +. reply_timeout in
  let rec port () =
    match In_channel.with_open_text port_file In_channel.input_all with
    | s when String.trim s <> "" -> int_of_string (String.trim s)
    | _ | (exception Sys_error _) | (exception Failure _) ->
        if now () > deadline then failwith "spannerd did not start listening";
        (match Unix.waitpid [ WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "spannerd exited before listening");
        Unix.sleepf 0.002;
        port ()
  in
  let port = port () in
  { pid; port; ctl = connect port }

let stop tally d =
  (match request d.ctl W.Shutdown with
  | Ok W.Shutting_down -> ()
  | _ -> reject tally "SHUTDOWN was not acknowledged");
  Unix.close d.ctl.fd;
  (match Unix.waitpid [] d.pid with
  | _, WEXITED 0 -> ()
  | _ -> reject tally "spannerd did not exit cleanly");
  live := List.filter (( <> ) d.pid) !live

(* ---- inputs and their certification ----------------------------- *)

type query = { u : int; v : int; edge : bool }

let draw rng g =
  if Rng.int rng 10 < 9 then
    let u, v = Ugraph.slot_endpoints g (Rng.int rng (2 * Ugraph.m g)) in
    { u; v; edge = true }
  else
    let u = Rng.int rng n in
    { u; v = (u + 1 + Rng.int rng (n - 1)) mod n; edge = false }

type tick = { ops : W.churn_op list; dels : int; ins : int }

let delta_of tk =
  let d = Ugraph.Delta.create () in
  List.iter
    (function
      | W.Ins (u, v) -> Ugraph.Delta.add_insert d u v
      | W.Del (u, v) -> Ugraph.Delta.add_delete d u v)
    tk.ops;
  d

let key u v = (min u v, max u v)

(* What the benchmark knows about the graph the daemon serves: the graph
   it loaded and every edge its churn put in or took out. *)
type world = {
  g0 : Ugraph.t;
  ticks : tick array;
  inserted : (int * int, unit) Hashtbl.t;
  deleted : (int * int, unit) Hashtbl.t;
  states : int array list Lazy.t;  (* components after each tick *)
  mutable apart : (query * (W.reply, string) Stdlib.result) list;
      (* NOPATH replies, certified after the traffic *)
}

let world g0 ticks =
  let inserted = Hashtbl.create 64 and deleted = Hashtbl.create 64 in
  Array.iter
    (fun tk ->
      List.iter
        (function
          | W.Ins (u, v) -> Hashtbl.replace inserted (key u v) ()
          | W.Del (u, v) -> Hashtbl.replace deleted (key u v) ())
        tk.ops)
    ticks;
  let states =
    lazy
      (let g = ref g0 in
       Traversal.components g0
       :: Array.to_list
            (Array.map
               (fun tk ->
                 g := Ugraph.apply_delta !g (delta_of tk);
                 Traversal.components !g)
               ticks))
  in
  { g0; ticks; inserted; deleted; states; apart = [] }

let is_edge w a b = Ugraph.mem_edge w.g0 a b || Hashtbl.mem w.inserted (key a b)

(* A PATH is a real u..v path over edges the benchmark put into the graph,
   of at most 2 hops when the query is an edge churn has not deleted; a
   NOPATH is right only if u and v were apart in some graph state. *)
let check_query w q = function
  | Ok (W.Path (x :: rest as path)) ->
      let rec hops a = function
        | [] -> a = q.v
        | b :: tl -> is_edge w a b && hops b tl
      in
      x = q.u && hops x rest
      && ((not q.edge) || Hashtbl.mem w.deleted (key q.u q.v)
         || List.length path <= 3)
  | Ok (W.Nopath (a, b)) ->
      a = q.u && b = q.v
      && List.exists (fun c -> c.(a) <> c.(b)) (Lazy.force w.states)
  | Ok _ | Error _ -> false

let query_failed q reply =
  lazy
    (Printf.sprintf "QUERY %d %d -> %s" q.u q.v
       (match reply with Ok r -> W.print_reply r | Error e -> "unparseable: " ^ e))

(* Certifying a NOPATH needs the components of every graph state, which
   take seconds to build under churn; building them mid-traffic would
   stall the load generator. So a NOPATH waits until the traffic ends,
   and [certify_apart] then checks it. *)
let certify tally w q reply =
  match reply with
  | Ok (W.Nopath _) -> w.apart <- (q, reply) :: w.apart
  | _ -> attempt tally (check_query w q reply) (query_failed q reply)

let certify_apart tally w =
  List.iter
    (fun (q, reply) -> attempt tally (check_query w q reply) (query_failed q reply))
    (List.rev w.apart);
  w.apart <- []

(* ---- set-up: spawn + LOADFILE, [setups] times ------------------- *)

type setup = {
  daemon : daemon;
  path : string;
  loaded : W.reply;
  setup_s : S.t;  (* spawn + LOADFILE, scaled by host speed *)
  load_s : S.t;  (* LOADFILE round trip, scaled by host speed *)
  raw_setup : float;  (* medians of the unscaled times, for the report *)
  raw_load : float;
  gen_ms : float;
}

let bring_up tally =
  let g, gen_s =
    timed (fun () -> Generators.caveman_n (Rng.create graph_seed) n p_rewire)
  in
  let path = scratch_file "graph.txt" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Graph_io.to_edge_list g));
  let setup_s = ref [] and load_s = ref [] and raw = ref [] in
  let kept = ref None in
  for k = 1 to setups do
    (* Each set-up is scaled by the host speed measured around it. *)
    let (d, reply, load), dt, scaled_dt =
      scaled (fun () ->
          let d = spawn k in
          let reply, load = timed (fun () -> request d.ctl (W.Loadfile path)) in
          (d, reply, load))
    in
    setup_s := scaled_dt :: !setup_s;
    load_s := (load *. scaled_dt /. dt) :: !load_s;
    raw := (dt, load) :: !raw;
    attempt tally
      (match reply with
      | Ok (W.Loaded l) -> l.n = Ugraph.n g && l.m = Ugraph.m g
      | _ -> false)
      (lazy "LOADFILE did not load the graph the benchmark wrote");
    (match !kept with
    | Some (_, r) when r <> reply ->
        reject tally "two daemons loaded the same file differently"
    | _ -> ());
    if k < setups then stop tally d;
    kept := Some (d, reply)
  done;
  let daemon, reply = Option.get !kept in
  let loaded = match reply with Ok r -> r | Error e -> failwith e in
  ( g,
    {
      daemon;
      path;
      loaded;
      setup_s = S.of_list !setup_s;
      load_s = S.of_list !load_s;
      raw_setup = S.median (S.of_list (List.map fst !raw));
      raw_load = S.median (S.of_list (List.map snd !raw));
      gen_ms = 1e3 *. gen_s;
    } )

(* The daemon's bootstrap, reproduced and certified in-process: the
   same graph and vote seed must give the spanner size and round count
   LOADED reported. Traced when the per-layer pass wants its layers. *)
let replica tally ~trace g loaded =
  let traced = if trace then Some (Boot.traced_run ~seed:load_seed g) else None in
  let r =
    match traced with
    | Some t -> t.tr
    | None -> Boot.timed_run ~seed:load_seed g
  in
  attempt tally
    (match loaded with
    | W.Loaded l ->
        r.ok && l.spanner = Boot.size r && l.rounds = r.res.metrics.rounds
    | _ -> false)
    (lazy "the daemon's bootstrap differs from the certified replica");
  anchor_gate ~what:"spannerd LOADFILE" ~m:(Ugraph.m g) ~spanner:(Boot.size r)
    ~iterations:r.res.iterations;
  (r, traced)

let stats_reply tally c =
  match request c W.Stats with
  | Ok (W.Stats_reply fields) ->
      fun k -> Option.value ~default:nan (List.assoc_opt k fields)
  | _ ->
      reject tally "STATS failed";
      fun _ -> nan

(* The final STATS must agree with the benchmark's own replay of what it
   sent: same n, m and tick count, still valid, no errors. *)
let cross_check tally stat ~g ~ticks ~queries =
  let expect name v =
    if stat name <> float_of_int v then
      reject tally
        (Printf.sprintf "STATS %s = %g, the benchmark's replay says %d" name
           (stat name) v)
  in
  expect "n" (Ugraph.n g);
  expect "m" (Ugraph.m g);
  expect "tick" ticks;
  expect "valid" 1;
  expect "errors" 0;
  expect "queries" queries

let exact_metrics (r : Boot.run) g ~drift =
  let m = r.res.metrics in
  [
    ("size_ratio", float_of_int (Boot.size r) /. float_of_int (Ugraph.m g));
    ("rounds", float_of_int m.rounds);
    ("messages", float_of_int m.messages);
    ("total_bits", float_of_int m.total_bits);
    ("drift_ratio", drift);
  ]

let report_exact metrics =
  List.iter
    (fun (name, v) ->
      let spec =
        List.find (fun (s : Perfkit.Metrics.spec) -> s.name = name)
          Perfkit.Metrics.end_to_end
      in
      line name v spec.unit "(exact)")
    metrics

(* ---- closed loop (serve_query) ---------------------------------- *)

(* Every [pause_every] seconds of traffic both connections drain and
   the reference kernel runs, so the host-speed samples come from the
   same seconds as the latencies without any request waiting on them. *)
let pause_every = 0.5

type closed = {
  rtt : S.t;  (* per-QUERY round trip, seconds *)
  qps : float;  (* completed QUERYs per second of traffic *)
  sent : int;
  stream : query array;  (* the first [replayed] queries, in send order *)
  outstanding : int;  (* requests in flight when the window closed *)
}

let closed_loop tally w rng speed ~conns ~seconds =
  let pending = Array.make (Array.length conns) None in
  let busy () = Array.exists Option.is_some pending in
  let rtt = samples () and stream = ref [] and sent = ref 0 in
  let issue i =
    let q = draw rng w.g0 in
    if !sent < replayed then stream := q :: !stream;
    incr sent;
    pending.(i) <- Some (q, now ());
    send conns.(i) (W.Query (q.u, q.v))
  in
  let t0 = now () in
  let traffic = ref 0.0 and resumed = ref t0 in
  let outstanding = ref None in
  Array.iteri (fun i _ -> issue i) conns;
  while busy () do
    (match
       Unix.select
         (List.filteri (fun i _ -> pending.(i) <> None)
            (Array.to_list (Array.map (fun c -> c.fd) conns)))
         [] [] reply_timeout
     with
    | [], _, _ -> failwith "no QUERY reply within the timeout"
    | ready, _, _ ->
        List.iter
          (fun fd ->
            let i = ref 0 in
            while conns.(!i).fd <> fd do incr i done;
            let c = conns.(!i) in
            if not (fill c) then failwith "daemon closed a query connection";
            match (Netbuf.take_line c.buf, pending.(!i)) with
            | None, _ -> ()
            | Some line, Some (q, ts) ->
                let t = now () in
                push rtt (t -. ts);
                let reply = W.parse_reply line in
                certify tally w q reply;
                pending.(!i) <- None;
                let elapsed = !traffic +. (t -. !resumed) in
                if elapsed >= seconds && !outstanding = None then
                  outstanding :=
                    Some (1 + Array.fold_left (fun a p -> if p = None then a else a + 1) 0 pending);
                if elapsed < seconds && t -. !resumed < pause_every then issue !i
            | Some _, None -> reject tally "reply without a request")
          ready);
    let t = now () in
    if (not (busy ())) && !traffic +. (t -. !resumed) < seconds then begin
      traffic := !traffic +. (t -. !resumed);
      calibrate speed 3;
      resumed := now ();
      Array.iteri (fun i _ -> issue i) conns
    end
  done;
  traffic := !traffic +. (now () -. !resumed);
  certify_apart tally w;
  {
    rtt = stats rtt;
    qps = float_of_int rtt.len /. !traffic;
    sent = !sent;
    stream = Array.of_list (List.rev !stream);
    outstanding = Option.value ~default:0 !outstanding;
  }

(* ---- open loop (serve_churn) ------------------------------------ *)

(* The schedule runs in one-second blocks: QUERYs every 1/query_rate
   and [tick_rate] CHURN ticks spread over the first 95%, then a quiet
   gap in which, once every reply is in, the reference kernel runs. *)
let active = 0.95

type event = Send_query of int | Send_churn of int | Calibrate

let schedule ~blocks =
  let per_q = int_of_float (active *. query_rate) in
  let per_c = int_of_float tick_rate in
  let events = ref [] in
  for b = 0 to blocks - 1 do
    let b' = float_of_int b in
    for i = 0 to per_q - 1 do
      events := (b' +. (float_of_int i /. query_rate), Send_query ((b * per_q) + i)) :: !events
    done;
    for j = 0 to per_c - 1 do
      let at = b' +. (active *. (float_of_int j +. 0.5) /. float_of_int per_c) in
      events := (at, Send_churn ((b * per_c) + j)) :: !events
    done;
    events := (b' +. active, Calibrate) :: !events
  done;
  (Array.of_list (List.sort compare !events), blocks * per_q, blocks * per_c)

type opened = {
  qlat : S.t;  (* QUERY latency from its scheduled send time *)
  qrtt : S.t;  (* QUERY latency from its actual send time *)
  clat : S.t;  (* CHURN ack latency from its scheduled send time *)
  late : S.t;  (* how late each send left, seconds *)
  backlog : int;  (* requests outstanding when the traffic ended *)
  acks : W.reply array;
  window : float;  (* seconds of traffic: the schedule less its gaps *)
}

let open_loop tally w speed ~events ~blocks ~queries ~qconn ~cconn =
  let nc = Array.length w.ticks in
  let t0 = now () +. 0.01 in
  let qfifo = Queue.create () and cfifo = Queue.create () in
  let qlat = samples () and qrtt = samples () and clat = samples () in
  let late = samples () in
  let acks = Array.make nc (W.Err "no reply") in
  let next = ref 0 and backlog = ref None and last = ref t0 in
  let quiet () = Queue.is_empty qfifo && Queue.is_empty cfifo in
  let sched_send c due fifo idx req =
    let ts = now () in
    send c req;
    push late (ts -. due);
    Queue.push (idx, due, ts) fifo
  in
  let on_reply c fifo k =
    if not (fill c) then failwith "daemon closed a connection";
    let rec go () =
      match Netbuf.take_line c.buf with
      | None -> ()
      | Some line ->
          (match Queue.take_opt fifo with
          | None -> reject tally "reply without a request"
          | Some (idx, due, ts) -> k idx due ts (W.parse_reply line));
          go ()
    in
    go ()
  in
  let gap = 1.0 -. active in
  while !next < Array.length events || not (quiet ()) do
    let t = now () in
    (* Fire every event that is due; a calibration waits for quiet, and
       is skipped when the gap is half gone. *)
    let rec fire () =
      if !next < Array.length events then
        let at, ev = events.(!next) in
        let due = t0 +. at in
        if due <= t then
          match ev with
          | Send_query i ->
              sched_send qconn due qfifo i (W.Query (queries.(i).u, queries.(i).v));
              incr next;
              fire ()
          | Send_churn j ->
              sched_send cconn due cfifo j (W.Churn w.ticks.(j).ops);
              incr next;
              fire ()
          | Calibrate ->
              if !next = Array.length events - 1 && !backlog = None then
                backlog := Some (Queue.length qfifo + Queue.length cfifo);
              if quiet () then begin
                calibrate speed 2;
                incr next;
                fire ()
              end
              else if now () > due +. (gap /. 2.0) then begin
                incr next;
                fire ()
              end
    in
    fire ();
    if now () > t0 +. float_of_int blocks +. reply_timeout then
      failwith "replies stopped arriving";
    let wake =
      if !next < Array.length events then
        let at, ev = events.(!next) in
        if ev = Calibrate && t0 +. at <= now () then now () +. 0.001 else t0 +. at
      else now () +. reply_timeout
    in
    match
      if !next = Array.length events && quiet () then ([], [], [])
      else Unix.select [ qconn.fd; cconn.fd ] [] [] (Float.max 0.0 (wake -. now ()))
    with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | ready, _, _ ->
        if List.memq qconn.fd ready then
          on_reply qconn qfifo (fun i due ts reply ->
              let t = now () in
              last := t;
              push qlat (t -. due);
              push qrtt (t -. ts);
              certify tally w queries.(i) reply);
        if List.memq cconn.fd ready then
          on_reply cconn cfifo (fun j due _ reply ->
              push clat (now () -. due);
              let tk = w.ticks.(j) in
              attempt tally
                (match reply with
                | Ok (W.Churned a) ->
                    acks.(j) <- W.Churned a;
                    a.tick = j + 1 && a.deleted = tk.dels
                    && a.inserted = tk.ins && a.valid
                | _ -> false)
                (lazy
                  (Printf.sprintf "CHURN tick %d -> %s" (j + 1)
                     (match reply with
                     | Ok r -> W.print_reply r
                     | Error e -> "unparseable: " ^ e))))
  done;
  certify_apart tally w;
  {
    qlat = stats qlat;
    qrtt = stats qrtt;
    clat = stats clat;
    late = stats late;
    backlog = Option.value ~default:0 !backlog;
    acks;
    window = !last -. t0 -. (float_of_int (blocks - 1) *. gap);
  }

(* ---- the traced pass's in-process replays ----------------------- *)

(* Parse, handle and print, each timed, through an in-process
   Service holding the same graph. *)
let staged svc (ps, hs, prs) line =
  let t0 = now () in
  let req = W.parse_request line in
  let t1 = now () in
  let reply = match req with Ok r -> Service.handle svc r | Error e -> W.Err e in
  let t2 = now () in
  ignore (W.print_reply reply);
  let t3 = now () in
  push ps (t1 -. t0);
  push hs (t2 -. t1);
  push prs (t3 -. t2);
  (reply, t3 -. t0)

let stages () = (samples (), samples (), samples ())

let per_verb verb (ps, hs, prs) =
  let mean_us s = 1e6 *. S.mean (stats s) in
  [
    ("spannernet.parse_us." ^ verb, mean_us ps);
    ("spannernet.handle_us." ^ verb, mean_us hs);
    ("spannernet.print_us." ^ verb, mean_us prs);
  ]

(* The replayed query stream: each query once through the staged
   path and once with no stage timers, so the timers' own overhead
   shows, then through Daemon.Conn.feed, the whole per-line path. *)
let replay_service tally ~path ~loaded ~(queries : query array) =
  let svc = Service.create () in
  if Service.handle svc (W.Loadfile path) <> loaded then
    reject tally "in-process LOADFILE differs from the daemon's";
  let plain = samples () and timed_stages = samples () and qst = stages () in
  Array.iter
    (fun q ->
      let line = W.print_request (W.Query (q.u, q.v)) in
      let t0 = now () in
      (match W.parse_request line with
      | Ok r -> ignore (W.print_reply (Service.handle svc r))
      | Error _ -> ());
      push plain (now () -. t0);
      push timed_stages (snd (staged svc qst line)))
    queries;
  let feed = samples () in
  let conn = Conn.create () in
  Array.iter
    (fun q ->
      let line = W.print_request (W.Query (q.u, q.v)) ^ "\n" in
      let t0 = now () in
      ignore (Conn.feed conn svc line);
      push feed (now () -. t0);
      Netbuf.clear (Conn.output conn))
    queries;
  let ms s = 1e3 *. S.mean (stats s) in
  (svc, qst, stats feed, (ms plain, ms timed_stages))

(* The QUERY kernel alone: Spanner_check.query_path on the spanner's
   CSR, for the same replayed queries. *)
let replay_kernel spanner (queries : query array) =
  let scsr = C.Spanner_check.spanner_csr ~n spanner in
  let scratch = C.Spanner_check.query_create ~n () in
  let times = samples () and hops = ref 0 and paths = ref 0 in
  Array.iter
    (fun q ->
      let t0 = now () in
      let r = C.Spanner_check.query_path scratch scsr ~u:q.u ~v:q.v in
      push times (now () -. t0);
      match r with
      | Some p ->
          incr paths;
          hops := !hops + List.length p - 1
      | None -> ())
    queries;
  let t = stats times in
  pline "spanner_core.query_path_us_p99" t 99 1e6 "us";
  let k = Array.length queries in
  [
    ("spanner_core.query_path_us_p50", 1e6 *. S.percentile t 50);
    ("spanner_core.query_path_us_p99", 1e6 *. S.percentile t 99);
    ("spanner_core.hops_mean", float_of_int !hops /. float_of_int (max 1 !paths));
    ("spanner_core.nopath_frac", float_of_int (k - !paths) /. float_of_int k);
  ]

(* Every churn tick replayed twice, back to back: through the
   in-process Service (parse, handle, print: the daemon's CHURN path,
   end to end) and through the benchmark's own Incremental with each step
   of that handler timed — delta build, Incremental.apply, the spanner
   CSR rebuild, the validity check. Both must match the daemon's ack. *)
let replay_churn tally svc g0 spanner ticks (acks : W.reply array) =
  let inc = C.Incremental.create ~seed:load_seed ~spanner g0 in
  let cst = stages () and path = samples () in
  let build = samples () and apply = samples () and csr = samples () in
  let valid = samples () in
  let sum = Array.make 6 0 in
  let c0 = !Netflow.Densest.solver_calls in
  Array.iteri
    (fun j tk ->
      let through_service () =
        let reply, dt = staged svc cst (W.print_request (W.Churn tk.ops)) in
        push path dt;
        reply
      in
      (* Whichever replay runs second pays for the first one's garbage,
         so the two take turns going first. *)
      let early = if j mod 2 = 0 then Some (through_service ()) else None in
      let t0 = now () in
      let d = delta_of tk in
      let t1 = now () in
      let st = C.Incremental.apply inc d in
      let t2 = now () in
      ignore
        (C.Spanner_check.spanner_csr ~n:(Ugraph.n (C.Incremental.graph inc))
           (C.Incremental.spanner inc));
      let t3 = now () in
      let ok = C.Incremental.valid inc in
      let t4 = now () in
      let reply = match early with Some r -> r | None -> through_service () in
      List.iter2 push [ build; apply; csr; valid ]
        [ t1 -. t0; t2 -. t1; t3 -. t2; t4 -. t3 ];
      List.iteri
        (fun i x -> sum.(i) <- sum.(i) + x)
        [ st.seeds; st.candidates; st.broken; st.dirty; st.repair_rounds;
          st.repair_iterations ];
      match acks.(j) with
      | W.Churned a as ack
        when ok && ack = reply && a.spanner = st.spanner_size
             && a.broken = st.broken && a.dirty = st.dirty ->
          ()
      | _ ->
          reject tally
            (Printf.sprintf "tick %d: the replays differ from the daemon's ack" (j + 1)))
    ticks;
  (* The repairs' oracle calls, less the Service replay's (the same
     repairs again). *)
  let calls = (!Netflow.Densest.solver_calls - c0) / 2 in
  let ms s = 1e3 *. S.mean (stats s) in
  let p50 s = 1e3 *. S.median (stats s) in
  let k = float_of_int (Array.length ticks) in
  let f i = float_of_int sum.(i) in
  let ps, hs, prs = cst in
  pline "spanner_core.apply_ms_p50" (stats apply) 50 1e3 "ms";
  ( per_verb "churn" cst
    @ [
        ("spanner_core.apply_ms_p50", p50 apply);
        ("spanner_core.valid_ms_p50", p50 valid);
        ("spanner_core.spanner_csr_ms_p50", p50 csr);
        ("spanner_core.seeds", f 0);
        ("spanner_core.candidates", f 1);
        ("spanner_core.broken", f 2);
        ("spanner_core.dirty", f 3);
        ("spanner_core.repair_rounds", f 4);
        ("spanner_core.broken_per_candidate", f 2 /. Float.max 1.0 (f 1));
        ("spanner_core.dirty_frac", f 3 /. (k *. float_of_int n));
      ]
    @ Boot.ledger ~what:"one CHURN through the in-process Service (mean)"
        ~e2e_ms:(ms path)
        ~items:
          [
            ("spannernet.parse", ms ps);
            ("delta build", ms build);
            ("spanner_core.apply_ms", ms apply);
            ("spanner_core.spanner_csr_ms", ms csr);
            ("spanner_core.valid_ms", ms valid);
            ("spannernet.print", ms prs);
          ],
    S.sum (stats hs),
    calls,
    sum.(5) )

(* ---- the two workloads ------------------------------------------ *)

(* Traffic times are scaled by the host-speed factor [f] measured in
   the traffic's pauses; set-up times were scaled one by one. *)
let end_to_end st ~f ~op ~ops_per_s exact =
  let tail_p, tail = S.tail op in
  line "host speed factor" f "x" "(traffic; percentiles above are raw)";
  line "setup_s" (S.median st.setup_s) "s"
    (Printf.sprintf "(median of %d; raw %.4g)" setups st.raw_setup);
  line "spanner_s" (S.median st.load_s) "s"
    (Printf.sprintf "(LOADFILE, median of %d, quartile spread %.3f; raw %.4g)"
       setups (S.spread st.load_s) st.raw_load);
  line "op_us_tail" (f *. 1e6 *. tail) "us"
    (Printf.sprintf "(p%d of n=%d)" tail_p (S.count op));
  report_exact exact;
  [
    ("setup_s", S.median st.setup_s);
    ("spanner_s", S.median st.load_s);
    ("op_us_p50", f *. 1e6 *. S.median op);
    ("op_us_tail", f *. 1e6 *. tail);
    ("ops_per_s", ops_per_s);
  ]
  @ exact

let loadfile_parse_ms st =
  let text = In_channel.with_open_bin st.path In_channel.input_all in
  1e3
  *. S.median
       (S.of_list
          (List.init setups (fun _ -> snd (timed (fun () -> Graph_io.of_edge_list text)))))


let query ~seed ~seconds ~trace =
  let tally = tally () in
  let g, st = bring_up tally in
  let w = world g [||] in
  let conns = [| st.daemon.ctl; connect st.daemon.port |] in
  let speed = samples () in
  let cl =
    closed_loop tally w (Rng.create (seed lxor 0x51)) speed ~conns ~seconds
  in
  let f = factor speed in
  let stat = stats_reply tally st.daemon.ctl in
  cross_check tally stat ~g ~ticks:0 ~queries:cl.sent;
  Unix.close conns.(1).fd;
  stop tally st.daemon;
  let r, traced = replica tally ~trace g st.loaded in
  let drift = stat "spanner_edges" /. float_of_int (Boot.size r) in
  print_endline
    (Printf.sprintf "serve_query  n=%d m=%d seed=%d, 2 closed-loop connections"
       n (Ugraph.m g) seed);
  pline "query_us_p50" cl.rtt 50 1e6 "us";
  pline "query_us_p99" cl.rtt 99 1e6 "us";
  line "query_qps" cl.qps "1/s" (Printf.sprintf "(n=%d)" (S.count cl.rtt));
  let end_to_end =
    end_to_end st ~f ~op:cl.rtt ~ops_per_s:(cl.qps /. f) (exact_metrics r g ~drift)
  in
  let per_layer =
    match traced with
    | None -> []
    | Some t ->
        let _, qst, feed, (plain_ms, staged_ms) =
          replay_service tally ~path:st.path ~loaded:st.loaded
            ~queries:cl.stream
        in
        let ps, hs, prs = qst in
        let ms s = 1e3 *. S.mean (stats s) in
        [
          ("grapho.gen_ms", st.gen_ms);
          ("grapho.loadfile_parse_ms", loadfile_parse_ms st);
        ]
        @ Boot.layers tally [ t ]
        @ replay_kernel r.res.spanner cl.stream
        @ per_verb "query" qst
        @ [
            ("spannernet.feed_us_p50", 1e6 *. S.median feed);
            ("spannernet.transport_us", 1e6 *. (S.median cl.rtt -. S.median feed));
            ("loadgen.backlog_end", float_of_int cl.outstanding);
          ]
        @ Boot.ledger ~what:"one QUERY over the socket (mean)"
            ~e2e_ms:(1e3 *. S.mean cl.rtt)
            ~items:
              [
                ("spannernet.parse", ms ps);
                ("spannernet.handle", ms hs);
                ("spannernet.print", ms prs);
              ]
        @ Boot.overhead ~plain_ms ~traced_ms:staged_ms
  in
  { tally; end_to_end; per_layer }

(* The benchmark's own copy of the graph under its own deltas: the churn
   schedule, drawn before the run starts, and the final graph. *)
let make_ticks ~seed g count =
  let rng = Rng.create (seed lxor 0xC4) in
  let d = Ugraph.Delta.create () in
  let apply = samples () in
  let cur = ref g in
  let ticks =
    Array.init count (fun _ ->
        C.Incremental.churn ~rng ~replace !cur d;
        let ops = ref [] in
        Ugraph.Delta.iter_inserts (fun u v -> ops := W.Ins (u, v) :: !ops) d;
        Ugraph.Delta.iter_deletes (fun u v -> ops := W.Del (u, v) :: !ops) d;
        let next, dt = timed (fun () -> Ugraph.apply_delta !cur d) in
        push apply dt;
        cur := next;
        { ops = !ops; dels = Ugraph.Delta.deletes d; ins = Ugraph.Delta.inserts d })
  in
  (ticks, !cur, stats apply)

let churn ~seed ~seconds ~trace =
  let tally = tally () in
  let g, st = bring_up tally in
  let blocks = max 1 (int_of_float (Float.round seconds)) in
  let events, nq, nc = schedule ~blocks in
  let ticks, final, apply_delta = make_ticks ~seed g nc in
  let w = world g ticks in
  let qrng = Rng.create (seed lxor 0x51) in
  let queries = Array.init nq (fun _ -> draw qrng g) in
  let qconn = connect st.daemon.port in
  let speed = samples () in
  let ol =
    open_loop tally w speed ~events ~blocks ~queries ~qconn ~cconn:st.daemon.ctl
  in
  let f = factor speed in
  let late_p99 = 1e3 *. S.percentile ol.late 99 in
  if late_p99 > late_limit_ms then
    reject tally
      (Printf.sprintf "generator fell behind: sends left %.3g ms late at p99"
         late_p99);
  (* Outstanding requests at the end beyond 100 ms of traffic. *)
  let backlog_limit = int_of_float (0.1 *. (query_rate +. tick_rate)) + 2 in
  if ol.backlog > backlog_limit then
    reject tally
      (Printf.sprintf "backlog grew: %d requests outstanding at the end (limit %d)"
         ol.backlog backlog_limit);
  let stat = stats_reply tally st.daemon.ctl in
  cross_check tally stat ~g:final ~ticks:(Array.length ticks) ~queries:nq;
  Unix.close qconn.fd;
  stop tally st.daemon;
  let r, traced = replica tally ~trace g st.loaded in
  let fresh = Boot.timed_run ~seed:load_seed final in
  attempt tally fresh.ok (lazy "fresh bootstrap of the final graph is not a 2-spanner");
  let drift = stat "spanner_edges" /. float_of_int (Boot.size fresh) in
  print_endline
    (Printf.sprintf
       "serve_churn  n=%d m=%d seed=%d, open loop: QUERY %.0f/s, CHURN %.0f/s x %d ops"
       n (Ugraph.m g) seed query_rate tick_rate (2 * replace));
  pline "query_us_p50" ol.qlat 50 1e6 "us";
  pline "query_us_p99" ol.qlat 99 1e6 "us";
  pline "churn_ms_p50" ol.clat 50 1e3 "ms";
  pline "churn_ms_p90" ol.clat 90 1e3 "ms";
  pline "loadgen.late_ms_p99" ol.late 99 1e3 "ms";
  line "loadgen.backlog_end" (float_of_int ol.backlog) "count" "";
  (* The timed operation is the write: a CHURN ack, from its scheduled
     send time. The rate is the achieved one, which is the offered rate
     unless the daemon fell behind, so it is not scaled. *)
  let end_to_end =
    end_to_end st ~f ~op:ol.clat
      ~ops_per_s:(float_of_int (S.count ol.qlat + S.count ol.clat) /. ol.window)
      (exact_metrics r g ~drift)
  in
  let per_layer =
    match traced with
    | None -> []
    | Some t ->
        let replay = Array.sub queries 0 (min replayed nq) in
        let svc, qst, feed, (plain_ms, staged_ms) =
          replay_service tally ~path:st.path ~loaded:st.loaded ~queries:replay
        in
        let churn_layers, churn_s, calls, iterations =
          replay_churn tally svc g r.res.spanner ticks ol.acks
        in
        [
          ("grapho.gen_ms", st.gen_ms);
          ("grapho.loadfile_parse_ms", loadfile_parse_ms st);
          ("grapho.apply_delta_ms_p50", 1e3 *. S.median apply_delta);
          ( "grapho.delta_entries",
            float_of_int
              (Array.fold_left (fun a tk -> a + tk.dels + tk.ins) 0 ticks) );
        ]
        @ Boot.layers ~extra_calls:calls ~extra_iterations:iterations tally [ t ]
        @ replay_kernel r.res.spanner replay
        @ per_verb "query" qst
        @ [
            ("spannernet.feed_us_p50", 1e6 *. S.median feed);
            ("spannernet.transport_us", 1e6 *. (S.median ol.qrtt -. S.median feed));
            ("spannernet.churn_busy_frac", churn_s /. ol.window);
            ("loadgen.late_ms_p99", late_p99);
            ("loadgen.backlog_end", float_of_int ol.backlog);
          ]
        @ churn_layers
        @ Boot.overhead ~plain_ms ~traced_ms:staged_ms
  in
  { tally; end_to_end; per_layer }
