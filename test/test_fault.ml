(* Robustness suite: the checker-coverage matrix (does the shadow audit
   catch every fault class we can inject?), hardened trace decoding, and
   fuzzing of both codecs.  Fuzz iteration counts scale with GC_FUZZ_COUNT
   (the @fuzz alias raises it); the default keeps the corpus at 10k+ cases
   across the four fuzz properties. *)

module Spec = Gc_fault.Spec
module Coverage = Gc_fault.Coverage
module Injector = Gc_fault.Injector
module Trace_io = Gc_trace.Trace_io
module Trace = Gc_trace.Trace

let fuzz_count =
  match Option.bind (Sys.getenv_opt "GC_FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 2500

let fuzz name gen prop = Test_util.qcheck ~count:fuzz_count name gen prop

(* ------------------------------------------------- checker coverage matrix *)

let test_matrix_all_detected () =
  let outcomes = Coverage.matrix () in
  Alcotest.(check int)
    "one outcome per fault class" (List.length Spec.all)
    (List.length outcomes);
  List.iter
    (fun (o : Coverage.outcome) ->
      let name = Spec.to_string o.fault in
      (match o.fired with
      | None ->
          Alcotest.failf "fault %s never became eligible on the drill trace"
            name
      | Some _ -> ());
      if not o.detected then
        Alcotest.failf "fault %s fired but the audit stayed silent" name)
    outcomes;
  Alcotest.(check (list string))
    "no undetected classes" []
    (List.map Spec.to_string (Coverage.undetected outcomes))

(* The drill trace itself is clean: an un-injected policy survives the
   checked simulator, so the matrix detections are caused by the faults. *)
let test_matrix_negative_control () =
  let trace = Coverage.drill_trace () in
  let m =
    Gc_cache.Simulator.run ~check:true (Gc_cache.Lru.create ~k:4) trace
  in
  Alcotest.(check int) "all accesses simulated" (Trace.length trace)
    m.Gc_cache.Metrics.accesses

(* Hidden evictions are invisible at the faulting access; detection
   requires the trace to re-request the secretly evicted item.  Pin the
   delayed-detection behavior: on a prefix without re-access the audit
   stays silent even though the fault fired. *)
let test_hidden_evict_needs_reaccess () =
  let blocks = Gc_trace.Block_map.uniform ~block_size:4 in
  let no_reuse = Trace.make blocks [| 0; 1; 2; 3; 5; 6 |] in
  let o = Coverage.check Spec.Hidden_evict no_reuse in
  Alcotest.(check bool) "fired" true (o.Coverage.fired <> None);
  Alcotest.(check bool) "not yet detected" false o.Coverage.detected;
  let reuse = Trace.make blocks [| 0; 1; 2; 3; 5; 6; 0; 1; 2; 3 |] in
  let o = Coverage.check Spec.Hidden_evict reuse in
  Alcotest.(check bool) "detected after re-access" true o.Coverage.detected

let test_injector_arm_index () =
  (* Armed past the end of the trace: never fires, simulation is clean. *)
  let trace = Coverage.drill_trace () in
  List.iter
    (fun fault ->
      let o = Coverage.check ~at:10_000 fault trace in
      Alcotest.(check bool)
        (Spec.to_string fault ^ " stays armed")
        true
        (o.Coverage.fired = None && not o.Coverage.detected))
    Spec.all

let test_spec_parse () =
  List.iter
    (fun fault ->
      let s = Spec.to_string fault in
      (match Spec.parse s with
      | Ok { Spec.fault = f; at = 0 } when f = fault -> ()
      | _ -> Alcotest.failf "parse %s" s);
      match Spec.parse (s ^ "@42") with
      | Ok parsed ->
          Alcotest.(check string) "spec_string roundtrip" (s ^ "@42")
            (Spec.spec_string parsed)
      | Error e -> Alcotest.failf "parse %s@42: %s" s e)
    Spec.all;
  (match Spec.parse "no-such-fault" with
  | Error msg ->
      Alcotest.(check bool) "error lists classes" true
        (let rec contains i =
           i + 11 <= String.length msg
           && (String.sub msg i 11 = "phantom-hit" || contains (i + 1))
         in
         contains 0)
  | Ok _ -> Alcotest.fail "accepted unknown class");
  match Spec.parse "phantom-hit@-3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted negative arm index"

(* Graceful degradation: a crashing or violating policy in a sweep becomes
   a structured per-policy error; the survivors' results are intact. *)
let test_sweep_degrades_gracefully () =
  let trace = Test_util.trace_of (4, Array.init 200 (fun i -> (i * 7) mod 40)) in
  let outcomes =
    List.map
      (fun name ->
        Gc_cache.Obs_run.run_policy_result ~k:8 ~seed:1 name trace)
      [ "lru"; "broken:crash@50"; "broken:violate@50"; "fifo" ]
  in
  (match outcomes with
  | [ Ok lru; Error crash; Error violate; Ok fifo ] ->
      Alcotest.(check string) "lru survives" "lru" lru.Gc_cache.Obs_run.policy;
      Alcotest.(check string) "fifo survives" "fifo" fifo.Gc_cache.Obs_run.policy;
      Alcotest.(check string) "crash kind" "exception" crash.Gc_cache.Obs_run.kind;
      Alcotest.(check string)
        "violation kind" "model-violation" violate.Gc_cache.Obs_run.kind
  | _ -> Alcotest.fail "unexpected outcome shape");
  let manifest =
    Gc_cache.Obs_run.manifest_of_outcomes ~tool:"test" ~command:"suite" outcomes
  in
  let errors =
    List.filter_map (fun r -> r.Gc_obs.Manifest.error) manifest.Gc_obs.Manifest.runs
  in
  Alcotest.(check int) "manifest keeps all slots" 4
    (List.length manifest.Gc_obs.Manifest.runs);
  Alcotest.(check int) "two structured errors" 2 (List.length errors)

(* ------------------------------------------------------ decoder diagnostics *)

let err_of = function
  | Error (e : Trace_io.error) -> e
  | Ok _ -> Alcotest.fail "expected a decode error"

let test_text_diagnostics () =
  let e = err_of (Trace_io.of_string_result "gctrace 1\nblocks uniform 4\nrequests 3\n1 2 x\n") in
  Alcotest.(check string) "bad token position" "line 4: expected integer, got \"x\""
    (Trace_io.string_of_error e);
  let e = err_of (Trace_io.of_string_result "gctrace 2\n") in
  Alcotest.(check string) "bad version" "line 1: unsupported version 2"
    (Trace_io.string_of_error e);
  let e = err_of (Trace_io.of_string_result "gctrace 1\nblocks what 3\n") in
  Alcotest.(check string) "bad kind" "line 2: unknown block map kind \"what\""
    (Trace_io.string_of_error e);
  let e = err_of (Trace_io.of_string_result "gctrace 1\nblocks uniform 4\nrequests 2\n7\n") in
  Alcotest.(check string) "truncated" "line 5: expected 2 requests, found 1"
    (Trace_io.string_of_error e);
  let e =
    err_of (Trace_io.of_string_result "gctrace 1\nblocks uniform 4\nrequests 1\n7 9\n")
  in
  Alcotest.(check string) "trailing" "line 4: trailing garbage \"9\" after 1 requests"
    (Trace_io.string_of_error e);
  let e =
    err_of (Trace_io.of_string_result "gctrace 1\nblocks uniform 4\nrequests 1\n-7\n")
  in
  Alcotest.(check string) "negative id" "line 4: negative item id -7"
    (Trace_io.string_of_error e)

let test_text_lenient () =
  match Trace_io.of_string_lenient "gctrace 1\nblocks uniform 4\nrequests 4\n1 x 2 -9\n" with
  | Error e -> Alcotest.failf "lenient failed: %s" (Trace_io.string_of_error e)
  | Ok r ->
      Alcotest.(check int) "kept" 2 (Trace.length r.Trace_io.trace);
      Alcotest.(check int) "dropped" 2 r.Trace_io.dropped;
      Alcotest.(check int) "diagnostics" 2 (List.length r.Trace_io.diagnostics)

let test_text_lenient_truncated () =
  match Trace_io.of_string_lenient "gctrace 1\nblocks uniform 4\nrequests 10\n1 2 3\n" with
  | Error _ -> Alcotest.fail "lenient failed"
  | Ok r ->
      Alcotest.(check int) "kept" 3 (Trace.length r.Trace_io.trace);
      Alcotest.(check int) "dropped counts the missing tail" 7 r.Trace_io.dropped

let test_text_lenient_header_still_strict () =
  match Trace_io.of_string_lenient "gctrace 1\nblocks what 4\nrequests 1\n0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lenient decoded a broken header"

let sample_trace () =
  Trace.make (Gc_trace.Block_map.uniform ~block_size:4)
    (Array.init 257 (fun i -> (i * 13) mod 101))

let test_binary_byte_offsets () =
  let e = err_of (Trace_io.of_bytes_result (Bytes.of_string "")) in
  Alcotest.(check string) "empty" "byte 0: truncated magic"
    (Trace_io.string_of_error e);
  let e = err_of (Trace_io.of_bytes_result (Bytes.of_string "GCTB\001\007")) in
  Alcotest.(check string) "bad kind" "byte 5: unknown block kind 7"
    (Trace_io.string_of_error e);
  let e = err_of (Trace_io.of_bytes_result (Bytes.of_string "GCTB\003")) in
  Alcotest.(check string) "bad version" "byte 4: unsupported version 3"
    (Trace_io.string_of_error e)

let test_binary_varint_overflow () =
  (* Request count of ten 0xff continuation bytes: > 63 significant bits. *)
  let b = Bytes.of_string ("GCTB\001\000\004" ^ String.make 10 '\255') in
  let e = err_of (Trace_io.of_bytes_result b) in
  let msg = Trace_io.string_of_error e in
  Alcotest.(check bool) ("overflow reported: " ^ msg) true
    (String.length msg >= 15
    &&
    let rec contains i =
      i + 15 <= String.length msg
      && (String.sub msg i 15 = "varint overflow" || contains (i + 1))
    in
    contains 0)

let test_binary_length_bomb () =
  (* Header claims 2^50 requests but provides none: must fail cleanly and
     cheaply instead of preallocating from the claimed length. *)
  let buf = Buffer.create 16 in
  Buffer.add_string buf "GCTB\001\000\004";
  let v = ref (1 lsl 50) in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (!v land 0x7f lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v);
  let e = err_of (Trace_io.of_bytes_result (Buffer.to_bytes buf)) in
  Alcotest.(check string) "clean truncation error" "byte 15: truncated request"
    (Trace_io.string_of_error e)

let test_binary_checksum () =
  let t = sample_trace () in
  let b = Trace_io.to_bytes t in
  (match Trace_io.of_bytes_result b with
  | Ok t' -> Alcotest.(check int) "roundtrip" (Trace.length t) (Trace.length t')
  | Error e -> Alcotest.failf "clean decode failed: %s" (Trace_io.string_of_error e));
  (* Corrupt the last footer byte: structure is intact, checksum is not. *)
  let corrupt = Bytes.copy b in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 0x01));
  (match Trace_io.of_bytes_result corrupt with
  | Error e ->
      let msg = Trace_io.string_of_error e in
      Alcotest.(check bool) ("checksum mismatch: " ^ msg) true
        (let rec contains i =
           i + 17 <= String.length msg
           && (String.sub msg i 17 = "checksum mismatch" || contains (i + 1))
         in
         contains 0)
  | Ok _ -> Alcotest.fail "accepted corrupted footer");
  (* Truncation loses the footer. *)
  match Trace_io.of_bytes_result (Bytes.sub b 0 (Bytes.length b - 1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated payload"

let test_binary_v1_compat () =
  (* A version-1 payload (no footer) from an older writer still decodes. *)
  let t = sample_trace () in
  let b = Trace_io.to_bytes t in
  let v1 = Bytes.sub b 0 (Bytes.length b - 8) in
  Bytes.set v1 4 '\001';
  match Trace_io.of_bytes_result v1 with
  | Ok t' ->
      Alcotest.(check bool) "same requests" true
        (Array.init (Trace.length t) (Trace.get t)
        = Array.init (Trace.length t') (Trace.get t'))
  | Error e -> Alcotest.failf "v1 decode failed: %s" (Trace_io.string_of_error e)

let test_binary_trailing_garbage () =
  let t = sample_trace () in
  let b = Trace_io.to_bytes t in
  let padded = Bytes.cat b (Bytes.of_string "\000") in
  match Trace_io.of_bytes_result padded with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage"

let test_binary_lenient_prefix () =
  let t = sample_trace () in
  let b = Trace_io.to_bytes t in
  (* Cut deep inside the request stream. *)
  let cut = Bytes.sub b 0 (Bytes.length b - 60) in
  match Trace_io.of_bytes_lenient cut with
  | Error e -> Alcotest.failf "lenient failed: %s" (Trace_io.string_of_error e)
  | Ok r ->
      let kept = Trace.length r.Trace_io.trace in
      Alcotest.(check bool) "kept a strict prefix" true
        (kept > 0 && kept < Trace.length t);
      Alcotest.(check int) "drop accounting" (Trace.length t - kept)
        r.Trace_io.dropped;
      Alcotest.(check bool) "prefix is faithful" true
        (Array.init kept (Trace.get r.Trace_io.trace)
        = Array.init kept (Trace.get t))

(* ------------------------------------------------------------------ fuzzing *)

(* Random structural mutations over a serialized trace: flip, insert,
   delete, truncate.  The decoders must return — Ok or Error — without
   raising anything. *)
let mutations_gen =
  QCheck.Gen.(
    small_list
      (triple (int_range 0 3) (int_bound 1_000_000) (int_bound 255)))

let apply_mutations s muts =
  List.fold_left
    (fun s (op, pos, byte) ->
      let n = String.length s in
      if n = 0 then s
      else
        let pos = pos mod n in
        match op with
        | 0 ->
            (* flip *)
            String.mapi
              (fun i c -> if i = pos then Char.chr (Char.code c lxor byte) else c)
              s
        | 1 -> String.sub s 0 pos ^ String.make 1 (Char.chr byte) ^ String.sub s pos (n - pos)
        | 2 -> String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
        | _ -> String.sub s 0 pos)
    s muts

let total_text_decode s =
  (match Trace_io.of_string_result s with
  | Ok t -> assert (Trace.length t >= 0)
  | Error _ -> ());
  (match Trace_io.of_string_lenient s with
  | Ok r -> assert (r.Trace_io.dropped >= 0)
  | Error _ -> ());
  true

let total_binary_decode b =
  (match Trace_io.of_bytes_result b with
  | Ok t -> assert (Trace.length t >= 0)
  | Error _ -> ());
  (match Trace_io.of_bytes_lenient b with
  | Ok r -> assert (r.Trace_io.dropped >= 0)
  | Error _ -> ());
  true

let fuzz_tests =
  [
    fuzz "fuzz: text codec roundtrip"
      (Test_util.small_trace_arbitrary ())
      (fun input ->
        let t = Test_util.trace_of input in
        let t' =
          Test_util.decoded (Trace_io.of_string_result (Trace_io.to_string t))
        in
        Array.init (Trace.length t) (Trace.get t)
        = Array.init (Trace.length t') (Trace.get t'));
    fuzz "fuzz: binary codec roundtrip"
      (Test_util.small_trace_arbitrary ())
      (fun input ->
        let t = Test_util.trace_of input in
        let t' =
          Test_util.decoded (Trace_io.of_bytes_result (Trace_io.to_bytes t))
        in
        Array.init (Trace.length t) (Trace.get t)
        = Array.init (Trace.length t') (Trace.get t'));
    fuzz "fuzz: mutated text never escapes"
      QCheck.(pair (Test_util.small_trace_arbitrary ()) (QCheck.make mutations_gen))
      (fun (input, muts) ->
        let s = Trace_io.to_string (Test_util.trace_of input) in
        total_text_decode (apply_mutations s muts));
    fuzz "fuzz: mutated binary never escapes"
      QCheck.(pair (Test_util.small_trace_arbitrary ()) (QCheck.make mutations_gen))
      (fun (input, muts) ->
        let s = Bytes.to_string (Trace_io.to_bytes (Test_util.trace_of input)) in
        total_binary_decode (Bytes.of_string (apply_mutations s muts)));
  ]

let () =
  Alcotest.run "gc_fault"
    [
      ( "coverage",
        [
          Alcotest.test_case "matrix: every class detected" `Quick
            test_matrix_all_detected;
          Alcotest.test_case "negative control" `Quick
            test_matrix_negative_control;
          Alcotest.test_case "hidden-evict delayed detection" `Quick
            test_hidden_evict_needs_reaccess;
          Alcotest.test_case "arm index respected" `Quick
            test_injector_arm_index;
          Alcotest.test_case "spec grammar" `Quick test_spec_parse;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "sweep survives broken policy" `Quick
            test_sweep_degrades_gracefully;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "text diagnostics" `Quick test_text_diagnostics;
          Alcotest.test_case "text lenient" `Quick test_text_lenient;
          Alcotest.test_case "text lenient truncation" `Quick
            test_text_lenient_truncated;
          Alcotest.test_case "lenient keeps header strict" `Quick
            test_text_lenient_header_still_strict;
          Alcotest.test_case "binary byte offsets" `Quick
            test_binary_byte_offsets;
          Alcotest.test_case "binary varint overflow" `Quick
            test_binary_varint_overflow;
          Alcotest.test_case "binary length bomb" `Quick
            test_binary_length_bomb;
          Alcotest.test_case "binary checksum footer" `Quick
            test_binary_checksum;
          Alcotest.test_case "binary v1 compatibility" `Quick
            test_binary_v1_compat;
          Alcotest.test_case "binary trailing garbage" `Quick
            test_binary_trailing_garbage;
          Alcotest.test_case "binary lenient prefix" `Quick
            test_binary_lenient_prefix;
        ] );
      ("fuzz", fuzz_tests);
    ]
