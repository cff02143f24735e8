(* The structured tracing layer: the per-round series a Stats sink
   accumulates must reconcile exactly with the engine's aggregate
   metrics, the JSONL export must round-trip through the codec, and
   the sink plumbing (null detection, tee, send gating) must behave as
   documented — these invariants are what make a trace trustworthy as
   evidence for the paper's per-round claims. *)

open Grapho
module C = Spanner_core
module T = Distsim.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let rng seed = Rng.create seed

(* ---- Stats series vs Engine.metrics ------------------------------ *)

let series_of_run f =
  let st = T.stats () in
  let metrics = f (T.stats_sink st) in
  (T.series st, metrics)

let check_series_reconciles label (s : T.series)
    (m : Distsim.Engine.metrics) =
  let rows = s.T.rounds in
  check_int (label ^ " rows = rounds + 1") (m.rounds + 1) (Array.length rows);
  Array.iteri
    (fun i (r : T.round_stat) ->
      check_int (Printf.sprintf "%s row %d is round %d" label i i) i r.round)
    rows;
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 rows in
  check_int (label ^ " sum messages")
    m.messages
    (sum (fun (r : T.round_stat) -> r.messages));
  check_int (label ^ " sum bits")
    m.total_bits
    (sum (fun (r : T.round_stat) -> r.bits));
  check_int (label ^ " sum stepped")
    m.steps
    (sum (fun (r : T.round_stat) -> r.vertices_stepped));
  check_int (label ^ " sum violations")
    m.congest_violations
    (sum (fun (r : T.round_stat) -> r.congest_violations));
  let max_bits =
    Array.fold_left (fun acc (r : T.round_stat) -> max acc r.max_bits) 0 rows
  in
  check_int (label ^ " max max_bits") m.max_message_bits max_bits

let test_stats_reconcile () =
  List.iter
    (fun (name, g) ->
      (* LOCAL protocol, both schedulers. *)
      List.iter
        (fun (sched, sname) ->
          let s, m =
            series_of_run (fun sink ->
                (C.Two_spanner_local.run ~seed:7 ~sched ~trace:sink g).metrics)
          in
          check_series_reconciles
            (Printf.sprintf "%s/%s" name sname)
            s m)
        [ (`Active, "active"); (`Naive, "naive") ];
      (* CONGEST compilation: the series covers the compiled rounds. *)
      let s, m =
        series_of_run (fun sink ->
            (C.Two_spanner_local.run_congest ~seed:7 ~trace:sink g).metrics)
      in
      check_series_reconciles (name ^ "/congest") s m;
      (* MDS. *)
      let s, m =
        series_of_run (fun sink ->
            (C.Mds.run ~rng:(rng 7) ~trace:sink g).metrics)
      in
      check_series_reconciles (name ^ "/mds") s m)
    [
      ("K10", Generators.complete 10);
      ("caveman", Generators.caveman (rng 1) 4 6 0.05);
      ("gnp_40", Generators.gnp_connected (rng 2) 40 0.2);
    ]

let test_stats_round0_is_init () =
  let g = Generators.gnp_connected (rng 3) 30 0.2 in
  let s, _ =
    series_of_run (fun sink ->
        (C.Two_spanner_local.run ~seed:1 ~trace:sink g).metrics)
  in
  (* Round 0 is initialization: every vertex runs [init]. *)
  check_int "round 0 stepped = n" (Ugraph.n g)
    s.T.rounds.(0).T.vertices_stepped

let test_phase_markers () =
  let g = Generators.caveman (rng 4) 4 6 0.05 in
  let s, m =
    series_of_run (fun sink ->
        (C.Two_spanner_local.run ~seed:2 ~trace:sink g).metrics)
  in
  (* One marker per stepped round: warmup + the 12 cyclic names. *)
  let marked = List.fold_left (fun acc (_, k) -> acc + k) 0 s.T.phases in
  check_int "one phase marker per round" m.rounds marked;
  List.iter
    (fun (name, _) ->
      check ("known phase name: " ^ name) true
        (name = "warmup"
        || Array.exists (( = ) name) C.Two_spanner_local.phase_names))
    s.T.phases;
  (* The engine-level run emits its own counters and phases. *)
  let st = T.stats () in
  let r = C.Two_spanner.run ~seed:2 ~sink:(T.stats_sink st) g in
  let s = T.series st in
  check "uncovered counter present" true
    (List.mem_assoc "uncovered" s.T.counters);
  check_int "one commit marker per star" r.stars_added
    (try List.assoc "commit" s.T.phases with Not_found -> 0);
  check_int "one candidate marker per candidacy" r.candidate_count
    (try List.assoc "candidate" s.T.phases with Not_found -> 0)

(* ---- JSONL round-trip -------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "trace_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_jsonl_roundtrip () =
  with_temp_file (fun path ->
      let g = Generators.caveman (rng 5) 3 5 0.05 in
      let captured = ref [] in
      let oc = open_out path in
      let sink =
        T.tee
          (T.jsonl oc)
          (T.custom (fun ev -> captured := ev :: !captured))
      in
      ignore (C.Two_spanner_local.run ~seed:9 ~trace:sink g);
      close_out oc;
      let captured = List.rev !captured in
      let lines = ref [] in
      let ic = open_in path in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check_int "one line per event" (List.length captured)
        (List.length lines);
      List.iter2
        (fun line ev ->
          match T.event_of_json line with
          | Ok parsed ->
              check ("round-trips: " ^ line) true (parsed = ev)
          | Error msg -> Alcotest.failf "unparsable %s: %s" line msg)
        lines captured;
      (* And the parsed Send/Round_end lines reconcile with metrics. *)
      let r = C.Two_spanner_local.run ~seed:9 g in
      let send_bits =
        List.fold_left
          (fun acc line ->
            match T.event_of_json line with
            | Ok (T.Send { bits; _ }) -> acc + bits
            | _ -> acc)
          0 lines
      in
      check_int "sum of Send bits = total_bits" r.metrics.total_bits
        send_bits)

let test_codec_cases () =
  let roundtrip ev =
    match T.event_of_json (T.event_to_json ev) with
    | Ok ev' -> check ("codec: " ^ T.event_to_json ev) true (ev = ev')
    | Error msg -> Alcotest.failf "codec failed: %s" msg
  in
  roundtrip (T.Round_begin 0);
  roundtrip (T.Round_begin 123456);
  roundtrip
    (T.Round_end
       {
         T.round = 3;
         messages = 12;
         bits = 480;
         max_bits = 40;
         vertices_stepped = 7;
         vertices_done = 2;
         congest_violations = 0;
         dropped = 0;
         crashed = 0;
         elapsed_ns = 8125;
         minor_words = 2048;
         physical = 12;
       });
  roundtrip
    (T.Round_end
       {
         T.round = 5;
         messages = 9;
         bits = 90;
         max_bits = 10;
         vertices_stepped = 4;
         vertices_done = 4;
         congest_violations = 1;
         dropped = 3;
         crashed = 2;
         elapsed_ns = 17;
         minor_words = 0;
         physical = 4;
       });
  (* Pre-PR8 round_end lines carry no "physical" field; they must
     still parse, with the physical stream defaulting to the logical
     one (the two coincide on plain runs). *)
  (match
     T.event_of_json
       "{\"ev\":\"round_end\",\"round\":2,\"messages\":7,\"bits\":70,\
        \"max_bits\":10,\"stepped\":3,\"done\":1,\"violations\":0,\"ns\":42}"
   with
  | Ok (T.Round_end s) ->
      check_int "absent physical defaults to messages" 7 s.T.physical
  | Ok _ -> Alcotest.fail "parsed to the wrong event"
  | Error msg -> Alcotest.failf "pre-PR8 round_end: %s" msg);
  roundtrip (T.Send { src = 0; dst = 41; bits = 17; round = 2 });
  roundtrip (T.Fault_injected { round = 3; kind = T.Crash 7 });
  roundtrip (T.Fault_injected { round = 1; kind = T.Cut (2, 9) });
  roundtrip (T.Fault_injected { round = 8; kind = T.Restore (2, 9) });
  roundtrip
    (T.Message_dropped { src = 4; dst = 5; round = 6; reason = T.Dropped_random });
  roundtrip
    (T.Message_dropped { src = 0; dst = 1; round = 2; reason = T.Dropped_crashed });
  roundtrip
    (T.Message_dropped { src = 9; dst = 3; round = 4; reason = T.Dropped_cut });
  roundtrip (T.Phase { vertex = -1; name = "global"; round = 0 });
  roundtrip (T.Phase { vertex = 3; name = "with \"quotes\" \\ and\nnewline"; round = 9 });
  roundtrip (T.Counter { name = "uncovered"; value = 347.0; round = 1 });
  roundtrip (T.Counter { name = "ratio"; value = 0.125; round = 4 });
  List.iter
    (fun bad ->
      match T.event_of_json bad with
      | Ok _ -> Alcotest.failf "should not parse: %s" bad
      | Error _ -> ())
    [
      "";
      "{";
      "not json";
      "{\"ev\":\"nope\",\"round\":1}";
      "{\"ev\":\"send\",\"round\":1}";
      "{\"ev\":\"phase\",\"round\":1,\"vertex\":2,\"name\":3}";
      "{\"ev\":\"round_begin\",\"round\":1} trailing";
    ]

(* \uXXXX escapes must decode to UTF-8 bytes — including surrogate
   pairs for astral characters — and lone surrogates must be rejected,
   per RFC 8259. *)
let test_unicode_escapes () =
  let line name_json =
    Printf.sprintf "{\"ev\":\"phase\",\"round\":1,\"vertex\":0,\"name\":\"%s\"}"
      name_json
  in
  let parse_name escaped =
    match T.event_of_json (line escaped) with
    | Ok (T.Phase { name; _ }) -> name
    | Ok _ -> Alcotest.fail "parsed to the wrong event"
    | Error msg -> Alcotest.failf "unparsable %s: %s" escaped msg
  in
  Alcotest.(check string) "ascii escape" "A" (parse_name "\\u0041");
  Alcotest.(check string) "latin-1 escape" "caf\xc3\xa9"
    (parse_name "caf\\u00e9");
  Alcotest.(check string) "bmp escape (euro sign)" "\xe2\x82\xac"
    (parse_name "\\u20ac");
  Alcotest.(check string) "surrogate pair (emoji)" "\xf0\x9f\x98\x80"
    (parse_name "\\ud83d\\ude00");
  Alcotest.(check string) "mixed" "a\xc3\xa9b" (parse_name "a\\u00E9b");
  List.iter
    (fun bad ->
      match T.event_of_json (line bad) with
      | Ok _ -> Alcotest.failf "should not parse: %s" bad
      | Error _ -> ())
    [
      "\\ud83d" (* lone high surrogate *);
      "\\ud83dxx" (* high surrogate, no low escape *);
      "\\ude00" (* lone low surrogate *);
      "\\ud83d\\u0041" (* high surrogate followed by non-low *);
      "\\u12" (* truncated *);
      "\\uzzzz" (* non-hex *);
    ];
  (* Raw UTF-8 bytes pass through the encoder unescaped and survive a
     round trip. *)
  let ev =
    T.Phase { vertex = 2; name = "caf\xc3\xa9 \xf0\x9f\x98\x80"; round = 3 }
  in
  (match T.event_of_json (T.event_to_json ev) with
  | Ok ev' -> check "utf8 round-trip" true (ev = ev')
  | Error msg -> Alcotest.failf "utf8 round-trip: %s" msg);
  (* The exposed flat-object parser decodes the same way. *)
  match T.parse_flat_json "{\"a\":\"\\u00e9\",\"b\":2}" with
  | Ok fields ->
      check "flat string field" true
        (List.assoc "a" fields = T.Jstr "\xc3\xa9");
      check "flat number field" true (List.assoc "b" fields = T.Jnum 2.0)
  | Error msg -> Alcotest.failf "parse_flat_json: %s" msg

(* ---- sink plumbing ----------------------------------------------- *)

let test_sink_plumbing () =
  check "null is null" true (T.is_null T.null);
  check "null wants no sends" false (T.wants_sends T.null);
  let s = T.custom (fun _ -> ()) in
  check "custom not null" false (T.is_null s);
  check "custom wants sends by default" true (T.wants_sends s);
  check "sends:false respected" false
    (T.wants_sends (T.custom ~sends:false (fun _ -> ())));
  let st = T.stats () in
  check "stats sink skips sends" false (T.wants_sends (T.stats_sink st));
  (* tee null s == s (same sink, not a wrapper). *)
  check "tee null left" false (T.is_null (T.tee T.null s));
  check "tee null right" false (T.is_null (T.tee s T.null));
  check "tee of nulls is null" true (T.is_null (T.tee T.null T.null));
  (* tee wants sends iff either side does. *)
  let quiet = T.custom ~sends:false (fun _ -> ()) in
  check "tee sends or" true (T.wants_sends (T.tee quiet s));
  check "tee sends neither" false (T.wants_sends (T.tee quiet quiet));
  (* jsonl ~sends:false suppresses Send lines but keeps the rest. *)
  with_temp_file (fun path ->
      let oc = open_out path in
      let sink = T.jsonl ~sends:false oc in
      T.emit sink (T.Send { src = 0; dst = 1; bits = 5; round = 1 });
      T.emit sink (T.Round_begin 2);
      close_out oc;
      let ic = open_in path in
      let first = input_line ic in
      let rest = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      check "send suppressed" true
        (T.event_of_json first = Ok (T.Round_begin 2));
      check "single line" true (rest = None));
  (* send_filter keeps only matching pairs. *)
  with_temp_file (fun path ->
      let oc = open_out path in
      let sink = T.jsonl ~send_filter:(fun ~src ~dst:_ -> src = 0) oc in
      T.emit sink (T.Send { src = 1; dst = 0; bits = 3; round = 1 });
      T.emit sink (T.Send { src = 0; dst = 1; bits = 4; round = 1 });
      close_out oc;
      let ic = open_in path in
      let first = input_line ic in
      let rest = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      check "filtered send kept" true
        (T.event_of_json first
        = Ok (T.Send { src = 0; dst = 1; bits = 4; round = 1 }));
      check "other send dropped" true (rest = None))

let () =
  Alcotest.run "trace"
    [
      ( "stats",
        [
          Alcotest.test_case "series reconciles with metrics" `Quick
            test_stats_reconcile;
          Alcotest.test_case "round 0 is init" `Quick
            test_stats_round0_is_init;
          Alcotest.test_case "phase markers" `Quick test_phase_markers;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "codec cases" `Quick test_codec_cases;
          Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
        ] );
      ( "sinks",
        [ Alcotest.test_case "plumbing" `Quick test_sink_plumbing ] );
    ]
