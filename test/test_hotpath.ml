(* The simulator's hot path against a golden produced before it was
   rebuilt: every registry policy at three capacities over the suite
   traces, a block-size-1 corpus, a ragged explicit block map with
   unlisted items, and ids spaced 2^40 apart.  The same traces and
   capacities then run IBLP, iblp-adaptive and GCM configurations the
   registry's default names do not build, and the three offline
   policies, each built from the trace it is driven with.  Each case
   records the eight Metrics counters, a digest of the outcome stream and
   a digest of the probe's event stream, so any change in what a policy
   reports, in what order, or in how the simulator classifies it, shows
   as a changed line of test/golden/outcomes.json. *)

open Gc_trace
open Gc_cache

(* ------------------------------------------------------------- digests *)

(* FNV-1a over the little-endian bytes of each mixed int, as Trace.digest. *)
type digest = { mutable h : int64 }

let fnv () = { h = 0xCBF29CE484222325L }

let mix d v =
  let v = ref (Int64.of_int v) in
  for _ = 0 to 7 do
    let byte = Int64.logand !v 0xFFL in
    d.h <- Int64.mul (Int64.logxor d.h byte) 0x100000001B3L;
    v := Int64.shift_right_logical !v 8
  done

let mix_list d l =
  mix d (List.length l);
  List.iter (mix d) l

let hex d = Printf.sprintf "fnv1a64:%016Lx" d.h

let mix_outcome d = function
  | Policy.Hit { evicted } ->
      mix d 0;
      mix_list d evicted
  | Policy.Miss { loaded; evicted } ->
      mix d 1;
      mix_list d loaded;
      mix_list d evicted

let mix_event d = function
  | Gc_obs.Event.Access { index; item } ->
      mix d 0;
      mix d index;
      mix d item
  | Hit { index; item; kind; evicted } ->
      mix d 1;
      mix d index;
      mix d item;
      mix d (match kind with Temporal -> 0 | Spatial -> 1);
      mix_list d evicted
  | Miss { index; item; cold; loaded; evicted } ->
      mix d 2;
      mix d index;
      mix d item;
      mix d (Bool.to_int cold);
      mix_list d loaded;
      mix_list d evicted
  | Load { index; block; width } ->
      mix d 3;
      mix d index;
      mix d block;
      mix d width
  | Evict { index; item } ->
      mix d 4;
      mix d index;
      mix d item
  | Repartition { index; item_budget; block_budget } ->
      mix d 5;
      mix d index;
      mix d item_budget;
      mix d block_budget

(* --------------------------------------------------------------- corpus *)

(* A corpus trace is rebuilt per case.  [probes] are items asked about
   with [Policy.mem] every [probe_stride] accesses; they include items the
   trace never requests (for the ragged map, unlisted ones), so a [mem]
   that changed a block id would shift every later [Load] event. *)
type corpus_trace = { name : string; build : unit -> Trace.t; probes : int array }

let probe_stride = 37

let standard_traces =
  List.map
    (fun name ->
      let build () =
        match Workload_suite.build ~seed:1 ~n:2000 ~universe:1024 ~block_size:16 name with
        | Ok t -> t
        | Error e -> failwith e
      in
      { name; build; probes = [| 0; 5; 17; 300; 1023; 1024; 5000 |] })
    Workload_suite.standard_names

let block_size_one_traces =
  List.map
    (fun seed ->
      let build () =
        Generators.zipf_items (Rng.create seed) ~n:2000 ~universe:400 ~block_size:1
          ~alpha:0.9
      in
      { name = Printf.sprintf "zipf-b1-seed%d" seed; build; probes = [| 0; 1; 399; 400; 9999 |] })
    [ 3; 4 ]

(* Blocks of 1..7 items over [0, 100); the trace also requests unlisted
   items 100..139, each alone in its block. *)
let ragged =
  let build () =
    let rng = Rng.create 11 in
    let rec blocks start acc =
      if start >= 100 then List.rev acc
      else
        let width = min (1 + Rng.int rng 7) (100 - start) in
        blocks (start + width) (Array.init width (fun j -> start + j) :: acc)
    in
    let map = Block_map.of_blocks (blocks 0 []) in
    Trace.make map (Array.init 2000 (fun _ -> Rng.int rng 140))
  in
  { name = "ragged-explicit"; build; probes = [| 3; 99; 120; 140; 141; 500; 77 |] }

(* 64 blocks of 4 requested items, blocks spaced 2^40 apart. *)
let sparse =
  let build () =
    let rng = Rng.create 5 in
    Trace.make (Block_map.uniform ~block_size:16)
      (Array.init 2000 (fun _ ->
           let r = Rng.int rng 256 in
           ((r / 4) lsl 40) + (r mod 4)))
  in
  { name = "spaced-2^40"; build; probes = [| 0; 1; 5; 1 lsl 40; (1 lsl 40) + 15; 63 lsl 40; 64 lsl 40 |] }

let corpus = standard_traces @ block_size_one_traces @ [ ragged; sparse ]
let ks = [ 32; 128; 512 ]

(* ----------------------------------------------------------------- cases *)

let probe_mem policy probes pos acc =
  if pos mod probe_stride = 0 then
    mix acc (Bool.to_int (Policy.mem policy probes.(pos / probe_stride mod Array.length probes)))

(* A case builds its policy from the trace it runs (an offline policy
   must be driven with its own); [repartition] is the callback an
   adaptive policy reports its re-splits to. *)
type make =
  repartition:(item_budget:int -> block_budget:int -> unit) ->
  k:int ->
  Trace.t ->
  Policy.t

let registry name : make =
 fun ~repartition:_ ~k trace -> Registry.make name ~k ~blocks:trace.Trace.blocks ~seed:1

(* Each run gets its own trace and policy; a constructor raises
   Invalid_argument for a k the policy refuses, which the golden records.
   The events run stamps each repartition with the index of the access in
   flight, as Obs_run does, so re-splits enter the events digest. *)
let case_line ct (label, (make : make)) k =
  let fresh repartition =
    let trace = ct.build () in
    (trace, make ~repartition ~k trace)
  in
  let head = Printf.sprintf "{\"policy\":%S,\"trace\":%S,\"k\":%d" label ct.name k in
  match fresh (fun ~item_budget:_ ~block_budget:_ -> ()) with
  | exception Invalid_argument msg -> Printf.sprintf "%s,\"rejected\":%S}" head msg
  | trace, policy ->
      let outcomes = fnv () in
      let m =
        Simulator.run_with ~check:false
          ~f:(fun pos _ o ->
            mix_outcome outcomes o;
            probe_mem policy ct.probes pos outcomes)
          policy trace
      in
      mix outcomes (Policy.occupancy policy);
      let events = fnv () in
      let current = ref (-1) in
      let probe ev =
        (match ev with Gc_obs.Event.Access { index; _ } -> current := index | _ -> ());
        mix_event events ev
      in
      let trace, policy =
        fresh (fun ~item_budget ~block_budget ->
            mix_event events (Repartition { index = !current; item_budget; block_budget }))
      in
      let checked =
        Simulator.run_with ~check:true ~probe
          ~f:(fun pos _ _ -> probe_mem policy ct.probes pos events)
          policy trace
      in
      if Metrics.fields checked <> Metrics.fields m then
        Alcotest.failf "%s/%s/k=%d: check:true metrics %s differ from check:false %s" label
          ct.name k (Metrics.to_row checked) (Metrics.to_row m);
      let metrics =
        String.concat ","
          (List.map (fun (key, v) -> Printf.sprintf "%S:%d" key v) (Metrics.fields m))
      in
      Printf.sprintf "%s,\"metrics\":{%s},\"outcomes\":%S,\"events\":%S}" head metrics
        (hex outcomes) (hex events)

let registry_cases _k = List.map (fun name -> (name, registry name)) Registry.names

(* Configurations the registry's default names do not build: IBLP with an
   empty item or block layer and at a quarter split, its reorder ablation,
   iblp-adaptive reporting its re-splits, and GCM with a load limit below
   the block size.  These lines follow the default ones in the golden. *)
let variant_cases k =
  let named name = (name, registry name) in
  [
    named (Printf.sprintf "iblp:i=0,b=%d" k);
    named (Printf.sprintf "iblp:i=%d,b=0" k);
    named (Printf.sprintf "iblp:i=%d,b=%d" (k / 4) (3 * k / 4));
    ( "iblp+reorder_on_item_hit",
      fun ~repartition:_ ~k trace ->
        Iblp.create ~reorder_on_item_hit:true ~i:(k / 2) ~b:(k - (k / 2))
          ~blocks:trace.Trace.blocks () );
    ( "iblp-adaptive+repartition",
      fun ~repartition ~k trace ->
        Registry.make ~repartition "iblp-adaptive" ~k ~blocks:trace.Trace.blocks ~seed:1 );
    named "gcm:1";
    named "gcm:3";
  ]

(* The offline policies; their lines follow the variant ones. *)
let offline_cases _k =
  let offline name create : string * make = (name, fun ~repartition:_ ~k trace -> create ~k trace) in
  [
    offline "belady" Gc_offline.Belady.create;
    offline "block-belady" Gc_offline.Belady.block;
    offline "clairvoyant" Gc_offline.Belady.clairvoyant;
  ]

let golden_text () =
  let lines cases =
    List.concat_map
      (fun ct -> List.concat_map (fun k -> List.map (fun c -> case_line ct c k) (cases k)) ks)
      corpus
  in
  "[\n"
  ^ String.concat ",\n" (lines registry_cases @ lines variant_cases @ lines offline_cases)
  ^ "\n]\n"

(* Run from another directory than the test's own, the golden is not
   there: say so, rather than report every case as changed. *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error _ ->
      Alcotest.failf "cannot read %s from %s (run the test from test/, or with dune test)" path
        (Sys.getcwd ())
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s

(* Each line was written by the code as it stood before the rebuild the
   line guards (the registry defaults before the allocation-free
   simulator, the variant cases before the policy families were folded,
   the offline cases before the offline policies shared one engine);
   a mismatch leaves the new text in a temp file so the changed cases can
   be diffed. *)
let test_outcomes_golden () =
  let expected = read_file "golden/outcomes.json" in
  let actual = golden_text () in
  if actual <> expected then begin
    let path = Filename.temp_file "outcomes" ".json" in
    let oc = open_out_bin path in
    output_string oc actual;
    close_out oc;
    Alcotest.failf "outcomes differ from golden/outcomes.json; got %s" path
  end

(* ---------------------------------------------------- allocation counts *)

(* Exact minor-word counts, calibrated as test_prof's zero-allocation
   tests: [Gc.minor_words] boxes its result inside the bracket, so an
   empty bracket is the baseline every measurement is taken against.
   Every case runs at k = 100, 10k and 1M, so a count that grows with k
   fails at the larger capacities. *)

let measure f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let words f = measure f -. measure (fun () -> ())
let capacities = [ 100; 10_000; 1_000_000 ]
let block_size = 16
let blocks = Block_map.uniform ~block_size
let measured_accesses = 10_000

(* Feeds items [0, hi) in order, as often as it takes to make [n]
   accesses. *)
let feed access ~hi n =
  for i = 0 to n - 1 do
    ignore (access (i mod hi))
  done

(* The items a warm cache of capacity [k] holds in full: whole blocks, so
   block-lru's warm set is all hits too. *)
let warm_items k = k / block_size * block_size

let hit_policies = [ "lru"; "fifo"; "clock"; "fwf"; "plru"; "block-lru" ]

let test_raw_hits () =
  List.iter
    (fun k ->
      List.iter
        (fun name ->
          let access = Policy.access (Registry.make name ~k ~blocks ~seed:1) in
          let hi = warm_items k in
          feed access ~hi hi;
          let cost = words (fun () -> feed access ~hi measured_accesses) in
          Alcotest.(check (float 0.)) (Printf.sprintf "%s k=%d: words for %d hits" name k measured_accesses)
            0. cost)
        hit_policies)
    capacities

let test_simulator_hits () =
  List.iter
    (fun k ->
      List.iter
        (fun name ->
          let d = Simulator.create ~check:false (Registry.make name ~k ~blocks ~seed:1) blocks in
          let access = Simulator.access d in
          let hi = warm_items k in
          feed access ~hi hi;
          let misses = (Simulator.metrics d).misses in
          let cost = words (fun () -> feed access ~hi measured_accesses) in
          Alcotest.(check int) (name ^ ": all hits") misses (Simulator.metrics d).misses;
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s k=%d: words for %d checked-off hits" name k measured_accesses)
            0. cost)
        [ "lru"; "block-lru" ])
    capacities

(* The cache holds [k / stride] units (items for lru, blocks for
   block-lru; a unit is requested by its first item).  After units
   [0, 2 units) have gone through it, requests for the first units all
   miss, and the simulator has state for every item they load, so only
   the policy's outcome remains to be allocated. *)
let miss_words ~k ~stride name =
  let units = k / stride in
  let request access u = ignore (access (u * stride)) in
  let warm access =
    for u = 0 to (2 * units) - 1 do
      request access u
    done
  in
  let misses = min units measured_accesses in
  let miss access =
    for u = 0 to misses - 1 do
      request access u
    done
  in
  let raw = Policy.access (Registry.make name ~k ~blocks ~seed:1) in
  warm raw;
  let raw_cost = words (fun () -> miss raw) in
  let d = Simulator.create ~check:false (Registry.make name ~k ~blocks ~seed:1) blocks in
  let simulated = Simulator.access d in
  warm simulated;
  let hits = (Simulator.metrics d).hits in
  let sim_cost = words (fun () -> miss simulated) in
  Alcotest.(check int) (name ^ ": all misses") hits (Simulator.metrics d).hits;
  (float_of_int misses, raw_cost, sim_cost)

let test_miss_budgets () =
  List.iter
    (fun k ->
      List.iter
        (fun (name, stride, budget) ->
          let misses, raw, sim = miss_words ~k ~stride name in
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s k=%d: simulator bookkeeping words for %.0f misses" name k misses)
            0. (sim -. raw);
          if raw /. misses > budget then
            Alcotest.failf "%s k=%d: %.2f words per raw miss, budget %.0f" name k (raw /. misses)
              budget)
        [ ("lru", 1, 9.); ("block-lru", block_size, 3.) ])
    capacities

(* [Simulator.run ~check:false] over whole traces, each from a fresh
   policy: the warm trace of [miss_words], then that trace extended by
   10,000 hits on the units it leaves cached, or by the misses
   [miss_words] counts.  The run allocates its [Simulator.t], its shadow
   bytes and the policy's outcomes: hits add no word to the warm trace's
   count, and misses add exactly the words of the raw policy's outcomes. *)
let test_run_words () =
  List.iter
    (fun k ->
      List.iter
        (fun (name, stride) ->
          let units = k / stride in
          let requests n unit = Array.init n (fun i -> unit i * stride) in
          let warm = requests (2 * units) Fun.id in
          let result = ref (Metrics.create ()) in
          let run extension =
            let trace = Trace.make blocks (Array.append warm extension) in
            let policy = Registry.make name ~k ~blocks ~seed:1 in
            let cost = words (fun () -> result := Simulator.run ~check:false policy trace) in
            (cost, !result)
          in
          let alone, m = run [||] in
          let with_hits, h = run (requests measured_accesses (fun i -> units + (i mod units))) in
          Alcotest.(check int) (name ^ ": extended by hits") m.misses h.misses;
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s k=%d: run words with %d more hits" name k measured_accesses)
            alone with_hits;
          let misses, raw, _ = miss_words ~k ~stride name in
          let with_misses, x = run (requests (int_of_float misses) Fun.id) in
          Alcotest.(check int) (name ^ ": extended by misses") m.hits x.hits;
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s k=%d: run words with %.0f more misses" name k misses)
            (alone +. raw) with_misses)
        [ ("lru", 1); ("block-lru", block_size) ])
    capacities

(* Words allocated in the minor heap, and in the major heap directly
   (arrays of over 256 words, which [Gc.minor_words] never sees).
   [Gc.minor_words] is exact, and so are the major words [Gc.counters]
   reports past those promoted; its own minor count lags by up to a minor
   heap's worth, so it is not used. *)
let heap_words () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), major -. promoted)

let measure_heaps f =
  let minor0, direct0 = heap_words () in
  f ();
  let minor1, direct1 = heap_words () in
  (minor1 -. minor0, direct1 -. direct0)

(* The other policies built on [Lru_core], from a fresh policy over one
   fixed trace, so the store's creation and growth count as well as its
   steady state: lfu makes an instance per frequency level, and a store
   that started larger would show there first.  Each line holds two
   budgets.  The first is the minor words the policy allocated on this
   trace while [Lru_core] was a store of boxed nodes.  The second is the
   words of both heaps the flat store allocated when it landed: its
   arrays double and copy themselves as they grow, so where the trace
   only grows the stores (k = 10k never fills the cache) it allocates
   more than the boxed nodes did, which were allocated once each. *)
let lru_core_budgets =
  [
    ( 100,
      [
        ("arc", 120_166, 121_159);
        ("lfu", 435_794, 420_501);
        ("2q", 118_666, 119_457);
        ("s3-fifo", 177_623, 178_996);
        ("iblp", 751_467, 751_712);
        ("param-a:1", 2_111_614, 1_816_135);
        ("stride-prefetch", 607_693, 502_579);
        ("lru-k", 8_947_157, 8_945_698);
      ] );
    ( 10_000,
      [
        ("arc", 81_218, 152_751);
        ("lfu", 136_887, 210_027);
        ("2q", 77_732, 115_873);
        ("s3-fifo", 111_822, 165_331);
        ("iblp", 405_381, 456_173);
        ("param-a:1", 925_615, 939_544);
        ("stride-prefetch", 266_246, 352_215);
        ("lru-k", 140_480, 170_190);
      ] );
  ]

let test_lru_core_budgets () =
  let trace =
    match Workload_suite.build ~seed:1 ~n:10_000 ~universe:65_536 ~block_size "spatial-mix" with
    | Ok t -> t
    | Error e -> failwith e
  in
  let requests = trace.Trace.requests in
  let n = Array.length requests in
  let base_minor, base_direct = measure_heaps (fun () -> ()) in
  let over what k name cost budget =
    if cost > float_of_int budget then
      Alcotest.failf "%s k=%d: %.0f %s for %d accesses (%.4f each), budget %d (%.4f)" name k cost
        what n (cost /. float_of_int n) budget
        (float_of_int budget /. float_of_int n)
  in
  List.iter
    (fun (k, budgets) ->
      List.iter
        (fun (name, minor_budget, total_budget) ->
          let access = Policy.access (Registry.make name ~k ~blocks ~seed:1) in
          let minor, direct =
            measure_heaps (fun () ->
                for i = 0 to n - 1 do
                  ignore (access requests.(i))
                done)
          in
          let minor = minor -. base_minor and direct = direct -. base_direct in
          over "minor words" k name minor minor_budget;
          over "words in both heaps" k name (minor +. direct) total_budget)
        budgets)
    lru_core_budgets

(* The suite generators draw through [Rng.bits53]: the float
   [Rng.float] returns is boxed on every call from another module. *)
let test_zipf_draws () =
  let z = Zipf.create ~n:4096 ~alpha:0.9 and rng = Rng.create 1 in
  let draws = 20_000 in
  let cost =
    words (fun () ->
        for _ = 1 to draws do
          ignore (Zipf.sample z rng)
        done)
  in
  Alcotest.(check (float 0.)) (Printf.sprintf "words for %d Zipf.sample draws" draws) 0. cost

let () =
  Alcotest.run "hotpath"
    [
      ( "golden",
        [ Alcotest.test_case "outcomes match the parent-made golden" `Quick test_outcomes_golden ] );
      ( "alloc",
        [
          Alcotest.test_case "raw policy hits allocate nothing" `Quick test_raw_hits;
          Alcotest.test_case "simulator hits allocate nothing" `Quick test_simulator_hits;
          Alcotest.test_case "miss bookkeeping within the outcome" `Quick test_miss_budgets;
          Alcotest.test_case "unobserved runs allocate only outcomes" `Quick test_run_words;
          Alcotest.test_case "zipf draws allocate nothing" `Quick test_zipf_draws;
          Alcotest.test_case "lru_core users within their word budgets" `Quick
            test_lru_core_budgets;
        ] );
    ]
