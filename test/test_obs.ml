(* Unit tests of the observability subsystem: instrument semantics,
   histogram bucket edges, the JSON printer/parser pair, label
   isolation between planes, and summary determinism. *)

module Counter = Tivaware_obs.Counter
module Gauge = Tivaware_obs.Gauge
module Histogram = Tivaware_obs.Histogram
module Trace = Tivaware_obs.Trace
module Registry = Tivaware_obs.Registry
module Summary = Tivaware_obs.Summary
module Json = Tivaware_obs.Json

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

(* ---------------------------------------------------------------- *)
(* Counters and gauges                                               *)

let test_counter () =
  let c = Counter.create () in
  Alcotest.(check (float 0.)) "starts at zero" 0. (Counter.value c);
  Counter.incr c;
  Counter.incr c;
  Counter.add c 2.5;
  Alcotest.(check (float 1e-9)) "accumulates" 4.5 (Counter.value c);
  Alcotest.(check bool) "rejects negative" true
    (raises_invalid (fun () -> Counter.add c (-1.)));
  Alcotest.(check bool) "rejects nan" true
    (raises_invalid (fun () -> Counter.add c nan));
  Alcotest.(check bool) "rejects infinity" true
    (raises_invalid (fun () -> Counter.add c infinity));
  Alcotest.(check (float 1e-9)) "unchanged after rejects" 4.5 (Counter.value c)

let test_gauge () =
  let g = Gauge.create () in
  Gauge.set g 3.5;
  Gauge.add g (-5.);
  Alcotest.(check (float 1e-9)) "signed adjustment" (-1.5) (Gauge.value g);
  Alcotest.(check bool) "rejects nan set" true
    (raises_invalid (fun () -> Gauge.set g nan));
  Alcotest.(check bool) "rejects infinite add" true
    (raises_invalid (fun () -> Gauge.add g neg_infinity));
  Gauge.set g 7.;
  Alcotest.(check (float 0.)) "last write wins" 7. (Gauge.value g)

(* ---------------------------------------------------------------- *)
(* Histogram bucket semantics                                        *)

let test_histogram_edges () =
  Alcotest.(check bool) "empty edges rejected" true
    (raises_invalid (fun () -> Histogram.create ~edges:[||]));
  Alcotest.(check bool) "non-increasing rejected" true
    (raises_invalid (fun () -> Histogram.create ~edges:[| 1.; 1. |]));
  Alcotest.(check bool) "non-finite edge rejected" true
    (raises_invalid (fun () -> Histogram.create ~edges:[| 1.; infinity |]));
  let h = Histogram.create ~edges:[| 1.; 5.; 10. |] in
  (* Upper-inclusive binning: an observation equal to an edge lands in
     that edge's bucket, strictly above it in the next. *)
  Histogram.observe h 1.;
  Histogram.observe h 1.0000001;
  Histogram.observe h 5.;
  Histogram.observe h 10.;
  Histogram.observe h 10.5;
  Alcotest.(check (array int)) "upper-inclusive edges" [| 1; 2; 1; 1 |]
    (Histogram.counts h);
  Alcotest.(check int) "overflow included in count" 5 (Histogram.count h)

let test_histogram_special_values () =
  let h = Histogram.create ~edges:[| 1.; 2. |] in
  Histogram.observe h nan;
  Histogram.observe h infinity;
  Histogram.observe h 1.5;
  Alcotest.(check int) "nan dropped" 1 (Histogram.dropped h);
  Alcotest.(check int) "finite + infinite binned" 2 (Histogram.count h);
  Alcotest.(check (array int)) "infinity overflows" [| 0; 1; 1 |]
    (Histogram.counts h);
  (* Sum and mean only see finite mass. *)
  Alcotest.(check (float 1e-9)) "sum skips non-finite" 1.5 (Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean over binned count" 0.75 (Histogram.mean h)

(* A quantile whose rank lies past the last edge is only that edge as
   a lower bound; [overflowed] says which quantiles those are. *)
let test_histogram_overflowed () =
  let h = Histogram.create ~edges:[| 1.; 2. |] in
  Alcotest.(check bool) "empty never overflows" false (Histogram.overflowed h 0.5);
  Histogram.observe h 3.;
  Alcotest.(check bool) "all mass past the edges, even at q = 0" true
    (Histogram.overflowed h 0.);
  Histogram.observe h 0.5;
  Histogram.observe h 3.;
  Histogram.observe h 3.;
  Alcotest.(check bool) "rank inside the finite buckets" false
    (Histogram.overflowed h 0.25);
  Alcotest.(check (float 1e-9)) "interpolated quantile" 1. (Histogram.quantile h 0.25);
  Alcotest.(check bool) "rank past the finite buckets" true
    (Histogram.overflowed h 0.5);
  Alcotest.(check (float 1e-9)) "overflow reports the last edge" 2.
    (Histogram.quantile h 0.5);
  Alcotest.(check bool) "q outside [0, 1] rejected" true
    (raises_invalid (fun () -> Histogram.overflowed h 1.5))

(* ---------------------------------------------------------------- *)
(* Trace ring                                                        *)

let test_trace_ring () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.record t ~time:(float_of_int i) ~label:"x" (string_of_int i)
  done;
  Alcotest.(check int) "bounded" 3 (Trace.length t);
  Alcotest.(check int) "oldest displaced" 2 (Trace.dropped t);
  Alcotest.(check (list string)) "oldest first" [ "3"; "4"; "5" ]
    (List.map (fun e -> e.Trace.message) (Trace.events t))

(* ---------------------------------------------------------------- *)
(* Registry: label isolation and shape guards                        *)

let test_label_isolation () =
  let reg = Registry.create () in
  let viv = Registry.counter reg ~labels:[ ("plane", "vivaldi") ] "repair.evicted" in
  let mer = Registry.counter reg ~labels:[ ("plane", "meridian") ] "repair.evicted" in
  let bare = Registry.counter reg "repair.evicted" in
  Counter.incr viv;
  Counter.incr viv;
  Counter.incr mer;
  Alcotest.(check (float 0.)) "vivaldi isolated" 2. (Counter.value viv);
  Alcotest.(check (float 0.)) "meridian isolated" 1. (Counter.value mer);
  Alcotest.(check (float 0.)) "unlabelled isolated" 0. (Counter.value bare);
  (* Label order does not matter: same series either way. *)
  let a =
    Registry.counter reg ~labels:[ ("a", "1"); ("b", "2") ] "multi"
  and b =
    Registry.counter reg ~labels:[ ("b", "2"); ("a", "1") ] "multi"
  in
  Counter.incr a;
  Alcotest.(check (float 0.)) "label order canonicalized" 1. (Counter.value b);
  Alcotest.(check string) "series name sorted"
    "multi{a=1,b=2}"
    (Registry.series_name "multi" [ ("b", "2"); ("a", "1") ])

let test_shape_guards () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "m");
  Alcotest.(check bool) "kind change rejected" true
    (raises_invalid (fun () -> Registry.gauge reg "m"));
  ignore (Registry.histogram reg ~edges:[| 1.; 2. |] "h");
  Alcotest.(check bool) "edge change rejected" true
    (raises_invalid (fun () -> Registry.histogram reg ~edges:[| 1.; 3. |] "h"));
  (* Find-or-create: the same instrument comes back. *)
  let c = Registry.counter reg "m" in
  Counter.incr c;
  Alcotest.(check (float 0.)) "same instrument" 1.
    (Counter.value (Registry.counter reg "m"))

(* ---------------------------------------------------------------- *)
(* JSON                                                              *)

let test_json_round_trip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\n\t");
        ("i", Json.Int 42);
        ("f", Json.Float 163.136);
        ("neg", Json.Float (-0.25));
        ("list", Json.List [ Json.Bool true; Json.Null; Json.Int 0 ]);
        ("nested", Json.Obj [ ("x", Json.Float 1e-9) ]);
      ]
  in
  let s = Json.to_string doc in
  Alcotest.(check bool) "parses back" true (Json.of_string s = doc);
  (* Stability: printing the re-parsed value reproduces the text. *)
  Alcotest.(check string) "print/parse/print fixed point" s
    (Json.to_string (Json.of_string s))

let test_json_number () =
  Alcotest.(check bool) "integral float becomes Int" true
    (Json.number 3. = Json.Int 3);
  Alcotest.(check bool) "fractional stays Float" true
    (Json.number 3.5 = Json.Float 3.5);
  Alcotest.(check bool) "nan becomes Null" true (Json.number nan = Json.Null);
  Alcotest.(check bool) "infinity becomes Null" true
    (Json.number infinity = Json.Null);
  (match Json.of_string "{\"a\": [1, 2.5]}" with
  | Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5 ]) ] -> ()
  | _ -> Alcotest.fail "parse shapes");
  Alcotest.(check bool) "malformed raises" true
    (match Json.of_string "{\"a\": }" with
    | exception Failure _ -> true
    | _ -> false)

(* ---------------------------------------------------------------- *)
(* Summary determinism                                               *)

(* Two registries fed the same seeded workload must serialize to
   byte-identical summaries — this is what lets CI diff metrics
   snapshots across runs and machines. *)
let build_registry seed =
  let reg = Registry.create () in
  let rng = Tivaware_util.Rng.create seed in
  let c = Registry.counter reg ~labels:[ ("plane", "vivaldi") ] "probes" in
  let h = Registry.histogram reg ~edges:[| 10.; 50.; 100. |] "rtt" in
  let g = Registry.gauge reg "err" in
  for i = 0 to 199 do
    Counter.incr c;
    Histogram.observe h (Tivaware_util.Rng.float rng 150.);
    if i mod 50 = 0 then
      Registry.trace_event reg ~time:(float_of_int i) ~label:"t"
        (Printf.sprintf "tick %d" i)
  done;
  Gauge.set g (Tivaware_util.Rng.float rng 1.);
  reg

let test_summary_determinism () =
  let a = Summary.to_string ~clock:200. (build_registry 7)
  and b = Summary.to_string ~clock:200. (build_registry 7) in
  Alcotest.(check string) "same seed, same bytes" a b;
  let c = Summary.to_string ~clock:200. (build_registry 8) in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  (* The summary itself is valid JSON carrying the schema tag. *)
  match Json.of_string a with
  | Json.Obj fields ->
    Alcotest.(check bool) "schema tag" true
      (List.assoc_opt "schema" fields = Some (Json.String "tivaware.obs/1"));
    Alcotest.(check bool) "has counters" true (List.mem_assoc "counters" fields);
    Alcotest.(check bool) "has histograms" true
      (List.mem_assoc "histograms" fields);
    Alcotest.(check bool) "has trace" true (List.mem_assoc "trace" fields)
  | _ -> Alcotest.fail "summary is not an object"

let test_summary_series_sorted () =
  let reg = Registry.create () in
  (* Register in reverse order; the summary must sort by series name. *)
  ignore (Registry.counter reg "z");
  ignore (Registry.counter reg "a");
  ignore (Registry.counter reg ~labels:[ ("plane", "x") ] "a");
  match Json.member "counters" (Summary.to_json reg) with
  | Some (Json.Obj fields) ->
    Alcotest.(check (list string)) "sorted keys" [ "a"; "a{plane=x}"; "z" ]
      (List.map fst fields)
  | _ -> Alcotest.fail "no counters object"

(* ------------------------------------------------------------------ *)
(* Merge — per-domain registries into one deterministic summary        *)

module Merge = Tivaware_obs.Merge

let test_merge_counters_sum () =
  let a = Registry.create () and b = Registry.create () in
  Counter.add (Registry.counter a "shared") 2.;
  Counter.add (Registry.counter b "shared") 3.5;
  Counter.incr (Registry.counter a "only_a");
  let m = Merge.registries [ a; b ] in
  Alcotest.(check (float 1e-9)) "shared sums" 5.5
    (Counter.value (Registry.counter m "shared"));
  Alcotest.(check (float 1e-9)) "lone series copied" 1.
    (Counter.value (Registry.counter m "only_a"))

let test_merge_gauges_max () =
  let a = Registry.create () and b = Registry.create () in
  Gauge.set (Registry.gauge a "level") 4.;
  Gauge.set (Registry.gauge b "level") 7.;
  let m = Merge.registries [ a; b ] in
  Alcotest.(check (float 1e-9)) "max wins" 7.
    (Gauge.value (Registry.gauge m "level"))

let test_merge_histograms_bucketwise () =
  let edges = [| 1.; 2.; 5. |] in
  let a = Registry.create () and b = Registry.create () in
  let ha = Registry.histogram a ~edges "lat" in
  let hb = Registry.histogram b ~edges "lat" in
  let union = Histogram.create ~edges in
  let xs_a = [ 0.5; 1.5; 9. ] and xs_b = [ 1.5; 3.; 4.; nan ] in
  List.iter (fun x -> Histogram.observe ha x; Histogram.observe union x) xs_a;
  List.iter (fun x -> Histogram.observe hb x; Histogram.observe union x) xs_b;
  let m = Merge.registries [ a; b ] in
  let hm = Registry.histogram m ~edges "lat" in
  Alcotest.(check (array int)) "bucket counts add" (Histogram.counts union)
    (Histogram.counts hm);
  Alcotest.(check int) "dropped adds" 1 (Histogram.dropped hm);
  (* The property the per-domain split rests on: quantiles of the merge
     equal quantiles of one histogram fed both streams. *)
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%.0f of merge = p%.0f of union" (q *. 100.)
           (q *. 100.))
        (Histogram.quantile union q) (Histogram.quantile hm q))
    [ 0.25; 0.5; 0.9; 0.99 ]

let test_merge_shape_guards () =
  let a = Registry.create () and b = Registry.create () in
  ignore (Registry.counter a "x");
  ignore (Registry.gauge b "x");
  Alcotest.(check bool) "kind collision raises" true
    (match Merge.registries [ a; b ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let c = Registry.create () and d = Registry.create () in
  ignore (Registry.histogram c ~edges:[| 1.; 2. |] "h");
  ignore (Registry.histogram d ~edges:[| 1.; 3. |] "h");
  Alcotest.(check bool) "edge mismatch raises" true
    (match Merge.registries [ c; d ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_merge_singleton_exact () =
  let reg = build_registry 7 in
  (* Same-time events whose (label, message) order disagrees with
     insertion order: a singleton merge must not re-sort them. *)
  Registry.trace_event reg ~time:1000. ~label:"zz" "first";
  Registry.trace_event reg ~time:1000. ~label:"aa" "second";
  Alcotest.(check string) "singleton merge byte-identical"
    (Summary.to_string ~clock:5. reg)
    (Summary.to_string ~clock:5. (Merge.registries [ reg ]))

let test_merge_input_order_free () =
  let a = build_registry 3 and b = build_registry 9 in
  Alcotest.(check string) "merge order free"
    (Summary.to_string (Merge.registries [ a; b ]))
    (Summary.to_string (Merge.registries [ b; a ]))

let test_merge_deep_copies () =
  let a = Registry.create () in
  Counter.incr (Registry.counter a "c");
  let m = Merge.registries [ a ] in
  Counter.incr (Registry.counter a "c");
  Alcotest.(check (float 1e-9)) "input mutation does not alias" 1.
    (Counter.value (Registry.counter m "c"))

let () =
  Alcotest.run "obs"
    [
      ( "instruments",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram edges" `Quick test_histogram_edges;
          Alcotest.test_case "histogram special values" `Quick
            test_histogram_special_values;
          Alcotest.test_case "histogram overflowed quantiles" `Quick
            test_histogram_overflowed;
          Alcotest.test_case "trace ring" `Quick test_trace_ring;
        ] );
      ( "registry",
        [
          Alcotest.test_case "label isolation" `Quick test_label_isolation;
          Alcotest.test_case "shape guards" `Quick test_shape_guards;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "numbers" `Quick test_json_number;
        ] );
      ( "summary",
        [
          Alcotest.test_case "determinism" `Quick test_summary_determinism;
          Alcotest.test_case "series sorted" `Quick test_summary_series_sorted;
        ] );
      ( "merge",
        [
          Alcotest.test_case "counters sum" `Quick test_merge_counters_sum;
          Alcotest.test_case "gauges max" `Quick test_merge_gauges_max;
          Alcotest.test_case "histograms bucketwise" `Quick
            test_merge_histograms_bucketwise;
          Alcotest.test_case "shape guards" `Quick test_merge_shape_guards;
          Alcotest.test_case "singleton exact" `Quick test_merge_singleton_exact;
          Alcotest.test_case "input order free" `Quick
            test_merge_input_order_free;
          Alcotest.test_case "deep copies" `Quick test_merge_deep_copies;
        ] );
    ]
