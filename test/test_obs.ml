(* Tests for the Gc_obs observability layer: JSON encode/decode round
   trips, histogram bucketing, the metric registry, sinks, the standard
   probe on a hand-built event stream, the Prometheus exposition, and a
   golden-file check of the run manifest. *)

open Gc_obs

let json_testable =
  Alcotest.testable (fun fmt t -> Json.pp fmt t) (fun a b -> a = b)

(* ------------------------------------------------------------------ json *)

let test_json_encoding () =
  let check msg expected v =
    Alcotest.(check string) msg expected (Json.to_string v)
  in
  check "null" "null" Json.Null;
  check "bools" "[true,false]" (Json.Array [ Json.Bool true; Json.Bool false ]);
  check "int" "-42" (Json.Int (-42));
  check "whole float keeps point" "2.0" (Json.Float 2.0);
  check "nan is null" "null" (Json.Float Float.nan);
  check "inf is null" "null" (Json.Float infinity);
  check "escapes" "\"a\\\"b\\\\c\\n\\u0001\"" (Json.String "a\"b\\c\n\x01");
  check "empty obj" "{}" (Json.Obj []);
  check "nested" "{\"xs\":[1,{\"y\":\"z\"}]}"
    (Json.Obj
       [ ("xs", Json.Array [ Json.Int 1; Json.Obj [ ("y", Json.String "z") ] ]) ])

let test_json_parse_roundtrip_basic () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 3);
        ("b", Json.Float 0.5);
        ("c", Json.String "he\"llo\n");
        ("d", Json.Array [ Json.Null; Json.Bool true; Json.Float 1e300 ]);
        ("e", Json.Obj [ ("nested", Json.Array []) ]);
      ]
  in
  Alcotest.check json_testable "compact round-trips" v
    (Test_util.parse_json (Json.to_string v));
  (* The indented printer must emit the same document. *)
  Alcotest.check json_testable "pretty round-trips" v
    (Test_util.parse_json (Format.asprintf "%a" Json.pp v))

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) small_signed_int;
        map (fun f -> Json.Float f) (float_bound_inclusive 1e6);
        map (fun s -> Json.String s) string_printable;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun xs -> Json.Array xs) (list_size (0 -- 4) (self (n / 2))));
               ( 1,
                 map
                   (fun fields -> Json.Obj fields)
                   (list_size (0 -- 4)
                      (pair string_printable (self (n / 2)))) );
             ])

let qcheck_json_roundtrip =
  Test_util.qcheck ~count:500 "random JSON round-trips through the parser"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Test_util.parse_json (Json.to_string v) = v)

(* ------------------------------------------------------------- histogram *)

let qcheck_histogram_accounting =
  Test_util.qcheck ~count:200 "histogram count/sum/min/max/buckets"
    QCheck.(list (int_bound 100_000))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.observe h) xs;
      let sorted = List.sort compare xs in
      Histogram.count h = List.length xs
      && Histogram.sum h = List.fold_left ( + ) 0 xs
      && Histogram.min_value h
         = (match sorted with [] -> None | x :: _ -> Some x)
      && Histogram.max_value h
         = (match List.rev sorted with [] -> None | x :: _ -> Some x)
      (* Every value lands in the bucket its bit length names, and bucket
         counts sum back to the observation count. *)
      && List.for_all
           (fun (lo, hi, _) -> lo <= hi)
           (Histogram.buckets h)
      && List.fold_left
           (fun acc (_, _, c) -> acc + c)
           0 (Histogram.buckets h)
         = List.length xs
      && List.for_all
           (fun x ->
             List.exists
               (fun (lo, hi, _) -> lo <= x && x <= hi)
               (Histogram.buckets h))
           xs)

let test_histogram_bucket_edges () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 0; 1; 2; 3; 4; 7; 8 ];
  Alcotest.(check (list (triple int int int)))
    "bit-length buckets"
    [ (0, 0, 1); (1, 1, 1); (2, 3, 2); (4, 7, 2); (8, 15, 1) ]
    (Histogram.buckets h);
  Alcotest.(check int) "negative clamps to 0" 2
    (Histogram.observe h (-5);
     match Histogram.buckets h with (0, 0, c) :: _ -> c | _ -> -1)

let test_histogram_quantile_and_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.observe a) [ 1; 2; 3 ];
  List.iter (Histogram.observe b) [ 100; 200 ];
  Alcotest.(check (option int)) "empty quantile" None
    (Histogram.quantile (Histogram.create ()) 0.5);
  Alcotest.(check (option int)) "q=0 in first bucket" (Some 1)
    (Histogram.quantile a 0.);
  Alcotest.(check (option int)) "median bucket edge" (Some 3)
    (Histogram.quantile a 0.5);
  Histogram.merge a b;
  Alcotest.(check int) "merged count" 5 (Histogram.count a);
  Alcotest.(check int) "merged sum" 306 (Histogram.sum a);
  Alcotest.(check (option int)) "merged max" (Some 200) (Histogram.max_value a);
  (* The merged upper quantile lives in b's range. *)
  Alcotest.(check bool) "q=1 covers merged tail" true
    (match Histogram.quantile a 1. with Some hi -> hi >= 200 | None -> false)

let test_histogram_interp_quantiles () =
  Alcotest.(check (option (float 0.))) "empty p50" None
    (Histogram.p50 (Histogram.create ()));
  (* Constant data: every quantile is clamped to the single observed
     value, however wide its log bucket. *)
  let c = Histogram.create () in
  for _ = 1 to 100 do
    Histogram.observe c 7
  done;
  List.iter
    (fun q ->
      match Histogram.quantile_interp c q with
      | Some v -> Test_util.check_float ~eps:1e-9 "constant data" 7. v
      | None -> Alcotest.fail "no quantile on a non-empty histogram")
    [ 0.; 0.5; 0.9; 0.99; 1. ];
  (* Uniform 1..1000: interpolation lands near the exact quantile even
     though the top log bucket spans 512..1023. *)
  let u = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.observe u v
  done;
  let get q = Option.get (Histogram.quantile_interp u q) in
  Test_util.check_rel ~rel:0.05 "p50 near 500" 500. (get 0.5);
  Test_util.check_rel ~rel:0.05 "p90 near 900" 900. (get 0.9);
  Test_util.check_rel ~rel:0.05 "p99 near 990" 990. (get 0.99);
  let p50 = Option.get (Histogram.p50 u)
  and p90 = Option.get (Histogram.p90 u)
  and p99 = Option.get (Histogram.p99 u) in
  Alcotest.(check bool) "monotone in q" true (p50 <= p90 && p90 <= p99);
  Alcotest.(check bool) "clamped to observed range" true
    (get 0. >= 1. && get 1. <= 1000.)

let test_histogram_json_quantiles () =
  let member name j =
    match Json.member name j with
    | Some v -> v
    | None -> Alcotest.failf "histogram snapshot has no %S" name
  in
  (match member "p50" (Histogram.to_json (Histogram.create ())) with
  | Json.Null -> ()
  | j -> Alcotest.failf "empty p50 is not null: %s" (Json.to_string j));
  let h = Histogram.create () in
  for v = 1 to 100 do
    Histogram.observe h v
  done;
  let j = Histogram.to_json h in
  List.iter
    (fun (name, quantile) ->
      Test_util.check_float ~eps:1e-9 name
        (Option.get (quantile h))
        (Json.get_float (member name j)))
    [ ("p50", Histogram.p50); ("p90", Histogram.p90); ("p99", Histogram.p99) ]

(* -------------------------------------------------------------- registry *)

let test_registry_families () =
  let reg = Registry.create () in
  let c1 = Registry.counter reg ~labels:[ ("policy", "lru") ] "misses" in
  let c2 = Registry.counter reg ~labels:[ ("policy", "lru") ] "misses" in
  let c3 = Registry.counter reg ~labels:[ ("policy", "iblp") ] "misses" in
  Registry.incr c1;
  Registry.add c2 10;
  Registry.incr c3;
  Alcotest.(check int) "same (name,labels) is the same counter" 11
    (Registry.counter_value c1);
  Alcotest.(check int) "other label is distinct" 1 (Registry.counter_value c3);
  let g = Registry.gauge reg "occ" in
  Registry.set g 5;
  Registry.change g (-2);
  Alcotest.(check int) "gauge" 3 (Registry.gauge_value g);
  Alcotest.check
    (Alcotest.testable
       (fun fmt -> Format.fprintf fmt "%s")
       (fun a b -> a = b))
    "rows keep registration order"
    "misses misses occ"
    (String.concat " "
       (List.map (fun (name, _, _) -> name) (Registry.rows reg)));
  Alcotest.check_raises "type mismatch raises"
    (Invalid_argument "Registry: metric \"misses\" is a counter, not a histogram")
    (fun () -> ignore (Registry.histogram reg ~labels:[ ("policy", "lru") ] "misses"))

let test_registry_json_roundtrip () =
  let reg = Registry.create () in
  Registry.add (Registry.counter reg "hits") 7;
  Registry.set (Registry.gauge reg ~labels:[ ("layer", "item") ] "occ") 3;
  let h = Registry.histogram reg "widths" in
  List.iter (Histogram.observe h) [ 1; 16; 16 ];
  let encoded = Json.to_string (Registry.to_json reg) in
  let decoded = Test_util.parse_json encoded in
  Alcotest.check json_testable "snapshot survives encode + parse"
    (Registry.to_json reg) decoded;
  (* Spot-check the decoded shape with the accessors. *)
  match Json.get_list decoded with
  | [ hits; occ; widths ] ->
      Alcotest.(check int) "hits value" 7
        (Json.get_int (Option.get (Json.member "value" hits)));
      Alcotest.(check string) "occ label" "item"
        (Json.get_string
           (Option.get
              (Json.member "layer" (Option.get (Json.member "labels" occ)))));
      Alcotest.(check int) "histogram count" 3
        (Json.get_int (Option.get (Json.member "count" widths)))
  | other -> Alcotest.failf "expected 3 records, got %d" (List.length other)

(* ----------------------------------------------------------------- sinks *)

let ev_access index item = Event.Access { index; item }

let test_ring_sink () =
  let ring = Sink.Ring.create ~capacity:3 in
  let s = Sink.Ring.sink ring in
  List.iter (fun i -> s (ev_access i i)) [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "length capped" 3 (Sink.Ring.length ring);
  Alcotest.(check int) "total counts drops" 5 (Sink.Ring.total ring);
  Alcotest.(check (list int))
    "keeps the most recent, oldest first" [ 2; 3; 4 ]
    (List.map Event.index (Sink.Ring.contents ring));
  Sink.Ring.clear ring;
  Alcotest.(check int) "cleared" 0 (Sink.Ring.length ring)

let test_count_sink_and_tee () =
  let counts = Sink.Count.create () in
  let ring = Sink.Ring.create ~capacity:10 in
  let s = Sink.tee [ Sink.Count.sink counts; Sink.Ring.sink ring; Sink.null ] in
  s (ev_access 0 7);
  s (Event.Miss { index = 0; item = 7; cold = true; loaded = [ 7 ]; evicted = [] });
  s (Event.Load { index = 0; block = 1; width = 1 });
  s (ev_access 1 7);
  s (Event.Hit { index = 1; item = 7; kind = Event.Temporal; evicted = [] });
  Alcotest.(check int) "total" 5 (Sink.Count.total counts);
  Alcotest.(check int) "accesses" 2 (Sink.Count.get counts "access");
  Alcotest.(check int) "unseen kind is 0" 0 (Sink.Count.get counts "evict");
  Alcotest.(check (list string))
    "by_kind covers every kind in order" Event.kind_names
    (List.map fst (Sink.Count.by_kind counts));
  Alcotest.(check int) "tee delivered to the ring too" 5 (Sink.Ring.length ring)

let test_jsonl_sink () =
  let path = Filename.temp_file "gc_obs_test" ".jsonl" in
  let oc = open_out path in
  let s = Sink.jsonl ~labels:[ ("policy", "lru") ] oc in
  s (ev_access 0 3);
  s (Event.Miss { index = 0; item = 3; cold = true; loaded = [ 3; 4 ]; evicted = [] });
  close_out oc;
  let lines = Test_util.parse_jsonl_file path in
  Sys.remove path;
  match lines with
  | [ access; miss ] ->
      Alcotest.(check string) "label prepended" "lru"
        (Json.get_string (Option.get (Json.member "policy" access)));
      Alcotest.(check string) "discriminator" "access"
        (Json.get_string (Option.get (Json.member "ev" access)));
      Alcotest.(check (list int))
        "loaded list" [ 3; 4 ]
        (List.map Json.get_int
           (Json.get_list (Option.get (Json.member "loaded" miss))))
  | other -> Alcotest.failf "expected 2 lines, got %d" (List.length other)

(* ----------------------------------------------------------------- probe *)

let test_probe_on_synthetic_stream () =
  (* Hand-built stream matching the simulator's emission contract:
       idx 0: cold miss on 1, block load brings {1,2}
       idx 1: spatial hit on 2
       idx 2: cold miss on 3 loads {3}, evicting 1 (resident since idx 0)
       idx 3: warm miss on 1 loads {1}, evicting 2 (resident since idx 0)
     plus one repartition. *)
  let reg = Registry.create () in
  let p = Probe.create reg in
  let s = Probe.sink p in
  List.iter s
    [
      ev_access 0 1;
      Event.Miss { index = 0; item = 1; cold = true; loaded = [ 1; 2 ]; evicted = [] };
      Event.Load { index = 0; block = 0; width = 2 };
      ev_access 1 2;
      Event.Hit { index = 1; item = 2; kind = Event.Spatial; evicted = [] };
      ev_access 2 3;
      Event.Repartition { index = 2; item_budget = 8; block_budget = 8 };
      Event.Miss { index = 2; item = 3; cold = true; loaded = [ 3 ]; evicted = [ 1 ] };
      Event.Load { index = 2; block = 1; width = 1 };
      Event.Evict { index = 2; item = 1 };
      ev_access 3 1;
      Event.Miss { index = 3; item = 1; cold = false; loaded = [ 1 ]; evicted = [ 2 ] };
      Event.Load { index = 3; block = 0; width = 1 };
      Event.Evict { index = 3; item = 2 };
    ];
  let counter name =
    Registry.counter_value (Registry.counter reg name)
  in
  Alcotest.(check int) "spatial hits" 1 (counter "events_hit_spatial");
  Alcotest.(check int) "temporal hits" 0 (counter "events_hit_temporal");
  Alcotest.(check int) "cold misses" 2 (counter "events_miss_cold");
  Alcotest.(check int) "repartitions" 1 (counter "repartitions");
  let hist name = Registry.histogram reg name in
  (* Eviction ages: item 1 lived 0->2, item 2 lived 0->3. *)
  Alcotest.(check int) "eviction_age count" 2 (Histogram.count (hist "eviction_age"));
  Alcotest.(check int) "eviction_age sum" 5 (Histogram.sum (hist "eviction_age"));
  (* Reuse distance: only item 1 was re-requested, at gap 3. *)
  Alcotest.(check int) "reuse count" 1 (Histogram.count (hist "reuse_distance"));
  Alcotest.(check int) "reuse sum" 3 (Histogram.sum (hist "reuse_distance"));
  (* Load widths 2, 1, 1. *)
  Alcotest.(check int) "load_width count" 3 (Histogram.count (hist "load_width"));
  Alcotest.(check int) "load_width sum" 4 (Histogram.sum (hist "load_width"));
  (* Occupancy sampled at each access: 0, 2, 2, 2; final gauge {1,3}. *)
  Alcotest.(check int) "occupancy samples" 4 (Histogram.count (hist "occupancy"));
  Alcotest.(check int) "occupancy sum" 6 (Histogram.sum (hist "occupancy"));
  Alcotest.(check int) "occupancy now" 2
    (Registry.gauge_value (Registry.gauge reg "occupancy_now"))

(* -------------------------------------------------------------prometheus *)

let prom_fixture () =
  let reg = Registry.create () in
  (* "hits total" exercises name sanitisation; the label value exercises
     escaping. *)
  Registry.add (Registry.counter reg ~labels:[ ("policy", "l\"ru") ] "hits total") 7;
  Registry.set (Registry.gauge reg "occ") 3;
  let h = Registry.histogram reg "widths" in
  List.iter (Histogram.observe h) [ 1; 2; 3 ];
  reg

let prom_expected =
  String.concat "\n"
    [
      "# TYPE hits_total counter";
      "hits_total{policy=\"l\\\"ru\"} 7";
      "# TYPE occ gauge";
      "occ 3";
      "# TYPE widths histogram";
      "widths_bucket{le=\"1\"} 1";
      "widths_bucket{le=\"3\"} 3";
      "widths_bucket{le=\"+Inf\"} 3";
      "widths_sum 6";
      "widths_count 3";
      "";
    ]

let test_prometheus_exposition () =
  match Export.prometheus_of_json (Registry.to_json (prom_fixture ())) with
  | Ok text -> Alcotest.(check string) "exposition text" prom_expected text
  | Error msg -> Alcotest.failf "prometheus_of_json failed: %s" msg

let test_prometheus_of_json () =
  let reg = prom_fixture () in
  (* The wire form — a parsed Registry.to_json snapshot, as gcserved's
     stats op serves it — renders the identical text. *)
  (match
     Export.prometheus_of_json
       (Test_util.parse_json (Json.to_string (Registry.to_json reg)))
   with
  | Ok text -> Alcotest.(check string) "same text from snapshot" prom_expected text
  | Error msg -> Alcotest.failf "prometheus_of_json failed: %s" msg);
  match Export.prometheus_of_json (Json.String "not a snapshot") with
  | Error _ -> ()
  | Ok text -> Alcotest.failf "rendered garbage as %S" text

(* ----------------------------------------------------- metrics encoders *)

let simulate_metrics () =
  let trace =
    Gc_trace.Generators.spatial_mix (Gc_trace.Rng.create 7) ~n:5000
      ~universe:1024 ~block_size:8 ~p_spatial:0.6
  in
  let p =
    Gc_cache.Registry.make "iblp" ~k:128 ~blocks:trace.Gc_trace.Trace.blocks
      ~seed:1
  in
  Gc_cache.Simulator.run p trace

let test_metrics_to_row_is_stable_key_value () =
  let m = simulate_metrics () in
  let row = Gc_cache.Metrics.to_row m in
  let pairs = String.split_on_char ' ' row in
  Alcotest.(check (list string))
    "keys in order"
    [
      "accesses"; "hits"; "misses"; "hit_rate"; "spatial_hits";
      "temporal_hits"; "cold_misses"; "items_loaded"; "evictions";
    ]
    (List.map (fun kv -> List.hd (String.split_on_char '=' kv)) pairs);
  List.iter
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ _; v ] ->
          if String.length v = 0 || v.[0] = ' ' then
            Alcotest.failf "padded or empty value in %S" kv
      | _ -> Alcotest.failf "not a key=value pair: %S" kv)
    pairs;
  Alcotest.(check string) "accesses field" "accesses=5000" (List.hd pairs)

let test_metrics_json_matches_fields () =
  let m = simulate_metrics () in
  let decoded = Test_util.parse_json (Json.to_string (Gc_cache.Metrics.to_json m)) in
  List.iter
    (fun (key, v) ->
      Alcotest.(check int)
        key v
        (Json.get_int (Option.get (Json.member key decoded))))
    (Gc_cache.Metrics.fields m);
  Test_util.check_float ~eps:1e-9 "hit_rate"
    (Gc_cache.Metrics.hit_rate m)
    (Json.get_float (Option.get (Json.member "hit_rate" decoded)))

(* -------------------------------------------------------------- manifest *)

(* A fully deterministic manifest: fixed trace, fixed seed, volatile
   fields zeroed.  The golden file pins the schema; the fixture lives in
   Test_util (shared with regen_golden) — after an intentional schema
   change, regenerate with
   [dune exec test/regen_golden.exe -- manifest > test/golden/manifest.json]. *)
let build_golden_manifest = Test_util.build_golden_manifest

let test_manifest_golden () =
  let manifest = Manifest.zero_volatile (build_golden_manifest ()) in
  let rendered =
    Format.asprintf "%a@." Json.pp (Manifest.to_json manifest)
  in
  let golden_path = "golden/manifest.json" in
  let golden =
    let ic = open_in_bin golden_path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    text
  in
  Alcotest.(check string) "manifest matches the golden file" golden rendered

let test_manifest_zero_volatile () =
  let manifest = build_golden_manifest () in
  Alcotest.(check bool) "wall time recorded" true (manifest.Manifest.wall_time_s > 0.);
  let zeroed = Manifest.zero_volatile manifest in
  Alcotest.check json_testable "zeroing is idempotent"
    (Manifest.to_json zeroed)
    (Manifest.to_json (Manifest.zero_volatile zeroed));
  Alcotest.(check (float 0.)) "wall time zeroed" 0. zeroed.Manifest.wall_time_s

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "encoding" `Quick test_json_encoding;
          Alcotest.test_case "parse round-trip" `Quick
            test_json_parse_roundtrip_basic;
          qcheck_json_roundtrip;
        ] );
      ( "histogram",
        [
          qcheck_histogram_accounting;
          Alcotest.test_case "bucket edges" `Quick test_histogram_bucket_edges;
          Alcotest.test_case "quantile and merge" `Quick
            test_histogram_quantile_and_merge;
          Alcotest.test_case "interpolated quantiles" `Quick
            test_histogram_interp_quantiles;
          Alcotest.test_case "quantiles in json snapshot" `Quick
            test_histogram_json_quantiles;
        ] );
      ( "registry",
        [
          Alcotest.test_case "labeled families" `Quick test_registry_families;
          Alcotest.test_case "json round-trip" `Quick
            test_registry_json_roundtrip;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "ring buffer" `Quick test_ring_sink;
          Alcotest.test_case "count and tee" `Quick test_count_sink_and_tee;
          Alcotest.test_case "jsonl writer" `Quick test_jsonl_sink;
        ] );
      ( "probe",
        [
          Alcotest.test_case "synthetic stream" `Quick
            test_probe_on_synthetic_stream;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "exposition text" `Quick test_prometheus_exposition;
          Alcotest.test_case "from json snapshot" `Quick test_prometheus_of_json;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "to_row stable" `Quick
            test_metrics_to_row_is_stable_key_value;
          Alcotest.test_case "json matches fields" `Quick
            test_metrics_json_matches_fields;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "golden file" `Quick test_manifest_golden;
          Alcotest.test_case "zero_volatile" `Quick test_manifest_zero_volatile;
        ] );
    ]
