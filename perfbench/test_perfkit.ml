(* Pins the benchmark's own arithmetic (exact order statistics), its
   metric-name grammar, its result line, and the agreement between the
   metric registry and BENCHMARK.json. *)

open Perfkit

let close = Alcotest.(float 1e-12)
let s = Stats.of_list

let median () =
  Alcotest.check close "odd" 2.0 (Stats.median (s [ 3.0; 1.0; 2.0 ]));
  Alcotest.check close "even" 2.5 (Stats.median (s [ 4.0; 1.0; 3.0; 2.0 ]));
  Alcotest.check close "one" 7.0 (Stats.median (s [ 7.0 ]))

let percentile () =
  let hundred = s (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "p50 is a sample" 50.0 (Stats.percentile hundred 50);
  Alcotest.check close "p99" 99.0 (Stats.percentile hundred 99);
  Alcotest.check close "p100 is the max" 100.0 (Stats.percentile hundred 100);
  Alcotest.check close "p1 is the min" 1.0 (Stats.percentile hundred 1);
  Alcotest.check close "nearest rank rounds up" 3.0
    (Stats.percentile (s [ 1.0; 2.0; 3.0 ]) 67);
  Alcotest.check close "nearest rank, exact" 2.0
    (Stats.percentile (s [ 1.0; 2.0; 3.0 ]) 66)

let tail () =
  let ramp k = s (List.init k float_of_int) in
  Alcotest.(check (pair int (float 0.0))) "1000 samples: p99" (99, 989.0)
    (Stats.tail (ramp 1000));
  Alcotest.(check (pair int (float 0.0))) "100 samples: p90" (90, 89.0)
    (Stats.tail (ramp 100));
  Alcotest.(check (pair int (float 0.0))) "999 samples: p90" (90, 899.0)
    (Stats.tail (ramp 999));
  Alcotest.(check (pair int (float 0.0))) "10 samples: median" (50, 4.5)
    (Stats.tail (ramp 10))

(* Reference values from Python's statistics.quantiles(data, n=4). *)
let quartiles () =
  let q3 = Alcotest.(triple close close close) in
  Alcotest.check q3 "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (s (List.init 10 (fun i -> float_of_int (i + 1)))));
  Alcotest.check q3 "three" (1.0, 3.0, 5.0) (Stats.quartiles (s [ 5.0; 1.0; 3.0 ]));
  Alcotest.check q3 "two" (0.75, 1.5, 2.25) (Stats.quartiles (s [ 2.0; 1.0 ]));
  Alcotest.check q3 "seven" (0.2, 0.4, 0.9)
    (Stats.quartiles (s [ 0.3; 0.1; 0.7; 0.2; 0.9; 0.4; 1.5 ]));
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (s (List.init 10 (fun i -> float_of_int (i + 1)))))

let grammar () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metrics.valid_name n))
    [ "setup_s"; "distsim.phase.max1-rho_ms"; "0x"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Metrics.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; String.make 65 'a' ];
  List.iter
    (fun u -> Alcotest.(check bool) u true (Metrics.valid_unit u))
    [ "ms"; "1/s"; "%"; "calls/iter"; "count" ];
  List.iter
    (fun u -> Alcotest.(check bool) u false (Metrics.valid_unit u))
    [ ""; "a b"; String.make 17 'u' ]

let registry () =
  let names l = List.map (fun (sp : Metrics.spec) -> sp.name) l in
  let all = Metrics.end_to_end @ Metrics.per_layer in
  List.iter
    (fun (sp : Metrics.spec) ->
      Alcotest.(check bool) sp.name true
        (Metrics.valid_name sp.name && Metrics.valid_unit sp.unit))
    all;
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq compare (names all)));
  Alcotest.(check bool) "setup_s is end-to-end" true
    (List.mem { Metrics.name = "setup_s"; unit = "s" } Metrics.end_to_end);
  Alcotest.(check bool) "1..16 end-to-end" true
    (List.length Metrics.end_to_end <= 16);
  Alcotest.(check bool) "1..128 per-layer" true
    (List.length Metrics.per_layer <= 128)

let result_line () =
  let specs = [ { Metrics.name = "a_ms"; unit = "ms" }; { name = "b"; unit = "count" } ] in
  Alcotest.(check string) "format"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
     {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 7, \
     \"unit\": \"count\"}}}"
    (Metrics.result_line ~correct:true ~attempted:3 ~failed:0 specs
       [ ("b", 7.0); ("a_ms", 1.5) ]);
  let refuses what values =
    Alcotest.(check bool) what true
      (match Metrics.result_line ~correct:true ~attempted:1 ~failed:0 specs values with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  refuses "missing" [ ("a_ms", 1.0) ];
  refuses "undeclared" [ ("a_ms", 1.0); ("b", 1.0); ("c", 1.0) ];
  refuses "repeated" [ ("a_ms", 1.0); ("b", 1.0); ("b", 2.0) ];
  refuses "not finite" [ ("a_ms", nan); ("b", 1.0) ]

(* Index of [sub] in [s], at or after [from]. *)
let find ?(from = 0) s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then raise Not_found
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go from

(* The string value of ["key": "value"] inside [obj]. *)
let field obj key =
  let k = find obj ("\"" ^ key ^ "\"") in
  let q = String.index_from obj (String.index_from obj k ':') '"' in
  String.sub obj (q + 1) (String.index_from obj (q + 1) '"' - q - 1)

(* The (name, unit) pairs of one BENCHMARK.json metric list, in order:
   the flat objects between the key's '[' and its ']'. *)
let declared json key =
  let lo = find ~from:(find json ("\"" ^ key ^ "\"")) json "[" in
  let body = String.sub json lo (find ~from:lo json "]" - lo) in
  String.split_on_char '}' body
  |> List.filter (fun o -> String.contains o '{')
  |> List.map (fun o -> (field o "name", field o "unit"))

let benchmark_json () =
  let json = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let pairs l = List.map (fun (sp : Metrics.spec) -> (sp.name, sp.unit)) l in
  let same = Alcotest.(list (pair string string)) in
  Alcotest.check same "end_to_end" (pairs Metrics.end_to_end)
    (declared json "end_to_end");
  Alcotest.check same "per_layer" (pairs Metrics.per_layer)
    (declared json "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick median;
          Alcotest.test_case "percentile" `Quick percentile;
          Alcotest.test_case "tail" `Quick tail;
          Alcotest.test_case "quartiles" `Quick quartiles;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "grammar" `Quick grammar;
          Alcotest.test_case "registry" `Quick registry;
          Alcotest.test_case "result line" `Quick result_line;
          Alcotest.test_case "BENCHMARK.json" `Quick benchmark_json;
        ] );
    ]
