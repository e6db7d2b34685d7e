(* The supervised execution runtime: Gc_exec (cancel tokens, pool,
   journal, checkpoint) plus the Gc_obs pieces it leans on (the JSON
   parser, atomic export, manifest run codecs) and the Gc_cache wiring
   (the Simulator progress hook, the broken:hang / broken:flaky drill
   policies). *)

open Gc_exec
module Json = Gc_obs.Json

let with_tmp suffix f =
  let path = Filename.temp_file "gc_exec" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------ Json.parse *)

let json_testable =
  Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (Json.to_string j))
    ( = )

let test_parse_roundtrip_cases () =
  List.iter
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' -> Alcotest.check json_testable (Json.to_string j) j j'
      | Error e ->
          Alcotest.failf "%s: %s" (Json.to_string j)
            (Json.string_of_parse_error e))
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.5;
      Json.Float (-1.25e-3);
      Json.Float 0.087550000000000003;
      Json.String "";
      Json.String "a\"b\\c\n\t\x01";
      Json.String "caf\xc3\xa9";
      Json.Array [];
      Json.Obj [];
      Json.Obj
        [
          ("xs", Json.Array [ Json.Int 1; Json.Null; Json.String "s" ]);
          ("nested", Json.Obj [ ("k", Json.Float 3.25) ]);
        ];
    ]

(* Random JSON trees survive encode -> parse. *)
let json_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float f) (float_bound_inclusive 1e9);
               map (fun s -> Json.String s) string_printable;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map
                   (fun xs -> Json.Array xs)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4)
                      (pair string_printable (self (n / 2)))) );
             ])

let test_parse_roundtrip_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"parse (to_string j) = j"
       (QCheck.make json_gen ~print:Json.to_string)
       (fun j ->
         match Json.parse (Json.to_string j) with
         | Ok j' -> j = j'
         | Error _ -> false))

let test_parse_errors () =
  let fails ?at s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
    | Error e -> (
        match at with
        | None -> ()
        | Some offset ->
            Alcotest.(check int) (Printf.sprintf "%S error offset" s) offset
              e.Json.offset)
  in
  fails "" ~at:0;
  fails "  " ~at:2;
  fails "nul";
  fails "{\"a\":1" ~at:6;
  fails "[1,2,]";
  fails "{\"a\" 1}";
  fails "\"unterminated";
  fails "\"bad \x01 control\"";
  fails "01";
  fails "1.2.3";
  fails "[1] trailing" ~at:4;
  (* Deeply nested input must be rejected, not overflow the stack. *)
  let bomb = String.make 100_000 '[' in
  fails bomb;
  match Json.parse "[[[[1]]]]" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "shallow nesting rejected: %s" e.Json.reason

(* ---------------------------------------------------------- atomic export *)

let test_write_atomic () =
  with_tmp ".json" (fun path ->
      write_file path "stale";
      Gc_obs.Export.write_json_atomic path (Json.Obj [ ("x", Json.Int 1) ]);
      let s = read_file path in
      Alcotest.(check bool) "new content" true (Test_util.contains s "\"x\": 1");
      Alcotest.(check bool)
        "no tmp file left" false
        (Sys.file_exists (path ^ ".tmp")))

let test_write_atomic_failure_keeps_old () =
  (* Writing into a missing directory fails before the rename, so the
     destination (here: nonexistent) is never created half-written. *)
  let path = "/nonexistent-dir-gc-exec/out.json" in
  (match Gc_obs.Export.write_json_atomic path Json.Null with
  | () -> Alcotest.fail "write into missing directory succeeded"
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "no output file" false (Sys.file_exists path)

(* --------------------------------------------------------------- journal *)

let payload i = Json.Obj [ ("cell", Json.Int i); ("v", Json.Float 0.25) ]
let meta = Json.Obj [ ("tool", Json.String "test"); ("seed", Json.Int 7) ]

let write_journal path n =
  let w = Journal.create path ~meta in
  for i = 1 to n do
    Journal.append w (Printf.sprintf "cell-%d" i) (payload i)
  done;
  Journal.close w

let test_journal_roundtrip () =
  with_tmp ".jsonl" (fun path ->
      write_journal path 3;
      match Journal.load path with
      | Error e -> Alcotest.fail (Journal.string_of_error e)
      | Ok loaded ->
          Alcotest.check json_testable "meta" meta loaded.Journal.meta;
          Alcotest.(check bool) "not torn" false loaded.Journal.torn;
          Alcotest.(check int)
            "whole file valid"
            (String.length (read_file path))
            loaded.Journal.valid_bytes;
          Alcotest.(check (list string))
            "cells in order"
            [ "cell-1"; "cell-2"; "cell-3" ]
            (List.map fst loaded.Journal.entries);
          List.iteri
            (fun i (_, p) ->
              Alcotest.check json_testable "payload" (payload (i + 1)) p)
            loaded.Journal.entries)

let test_journal_torn_tail () =
  with_tmp ".jsonl" (fun path ->
      write_journal path 2;
      (* Simulate a crash mid-append: an unterminated trailing line. *)
      let intact = read_file path in
      write_file path (intact ^ "{\"sum\":\"0000000000000000\",\"entry\":{\"ce");
      match Journal.load path with
      | Error e -> Alcotest.fail (Journal.string_of_error e)
      | Ok loaded ->
          Alcotest.(check bool) "torn" true loaded.Journal.torn;
          Alcotest.(check int)
            "valid prefix excludes the torn line" (String.length intact)
            loaded.Journal.valid_bytes;
          Alcotest.(check int) "both cells kept" 2
            (List.length loaded.Journal.entries))

let test_journal_corruption_positioned () =
  with_tmp ".jsonl" (fun path ->
      write_journal path 3;
      let lines = String.split_on_char '\n' (read_file path) in
      let corrupt line =
        (* Flip payload content without touching the checksum. *)
        String.map (function '2' -> '3' | c -> c) line
      in
      let mangled =
        List.mapi (fun i l -> if i = 2 then corrupt l else l) lines
      in
      write_file path (String.concat "\n" mangled);
      match Journal.load path with
      | Ok _ -> Alcotest.fail "corrupted journal loaded"
      | Error e ->
          Alcotest.(check int) "points at line 3" 3 e.Journal.line;
          Alcotest.(check bool)
            "names the checksum" true
            (Test_util.contains e.Journal.reason "checksum"))

let test_journal_missing_header () =
  with_tmp ".jsonl" (fun path ->
      write_file path "";
      (match Journal.load path with
      | Ok _ -> Alcotest.fail "empty journal loaded"
      | Error e -> Alcotest.(check int) "empty points at line 1" 1 e.Journal.line);
      write_journal path 1;
      (* Drop the header line: the first line is now a cell, not @meta. *)
      let lines = String.split_on_char '\n' (read_file path) in
      write_file path (String.concat "\n" (List.tl lines));
      match Journal.load path with
      | Ok _ -> Alcotest.fail "headerless journal loaded"
      | Error e -> Alcotest.(check int) "points at line 1" 1 e.Journal.line)

let test_journal_resume_appends () =
  with_tmp ".jsonl" (fun path ->
      write_journal path 2;
      let intact = read_file path in
      write_file path (intact ^ "{\"sum\":\"00");
      (match Journal.resume path with
      | Error e -> Alcotest.fail (Journal.string_of_error e)
      | Ok (loaded, w) ->
          Alcotest.(check bool) "torn on resume" true loaded.Journal.torn;
          Journal.append w "cell-3" (payload 3);
          Journal.close w);
      match Journal.load path with
      | Error e -> Alcotest.fail (Journal.string_of_error e)
      | Ok loaded ->
          Alcotest.(check bool)
            "tail repaired" false loaded.Journal.torn;
          Alcotest.(check (list string))
            "appended after truncation"
            [ "cell-1"; "cell-2"; "cell-3" ]
            (List.map fst loaded.Journal.entries))

(* ------------------------------------------------------------------ pool *)

let quick_config ?deadline ?(retries = 1) ?(domains = 2) () =
  { Pool.domains; deadline; retries; grace = 0.1; backoff = 0.01; tick = 0.001 }

let test_pool_order_and_results () =
  let tasks =
    List.init 9 (fun i ~cancel:_ ->
        if i mod 2 = 0 then Pool.nap 0.005;
        i * i)
  in
  let outcomes = Pool.run ~config:(quick_config ~domains:4 ()) tasks in
  Alcotest.(check (list int))
    "squares in input order"
    (List.init 9 (fun i -> i * i))
    (List.map
       (function Pool.Done v -> v | _ -> Alcotest.fail "non-Done outcome")
       outcomes)

let test_pool_failure_isolated () =
  let tasks =
    List.init 4 (fun i ~cancel:_ ->
        if i = 2 then failwith "boom" else i)
  in
  match Pool.run ~config:(quick_config ()) tasks with
  | [ Pool.Done 0; Pool.Done 1; Pool.Failed (Failure m); Pool.Done 3 ] ->
      Alcotest.(check string) "failure message" "boom" m
  | _ -> Alcotest.fail "unexpected outcome shape"

let test_pool_transient_retry () =
  let attempts = Atomic.make 0 in
  let task ~cancel:_ =
    Atomic.incr attempts;
    if Pool.attempt () = 1 then raise (Pool.Transient "flaky once");
    Pool.attempt ()
  in
  (match Pool.run ~config:(quick_config ()) [ task ] with
  | [ Pool.Done 2 ] -> ()
  | _ -> Alcotest.fail "transient task did not succeed on attempt 2");
  Alcotest.(check int) "ran twice" 2 (Atomic.get attempts);
  (* Retries exhausted -> Failed with the transient error. *)
  match
    Pool.run
      ~config:(quick_config ~retries:0 ())
      [ (fun ~cancel:_ -> raise (Pool.Transient "always")) ]
  with
  | [ Pool.Failed (Pool.Transient "always") ] -> ()
  | _ -> Alcotest.fail "exhausted transient not Failed"

(* The retry schedule: after failed attempt i the task sleeps
   backoff * 2^(i-1) (no jitter shortens it); a deadline that lapses
   during that sleep settles the task instead of starting attempt i+1. *)
let test_pool_backoff_schedule () =
  let starts = ref [] in
  let task ~cancel:_ =
    starts := Gc_prof.Clock.now_s () :: !starts;
    if Pool.attempt () < 4 then raise (Pool.Transient "not yet");
    Pool.attempt ()
  in
  let config = { (quick_config ~retries:3 ()) with Pool.backoff = 0.02 } in
  (match Pool.run ~config [ task ] with
  | [ Pool.Done 4 ] -> ()
  | _ -> Alcotest.fail "task did not succeed on attempt 4");
  (match List.rev !starts with
  | [ t1; t2; t3; t4 ] ->
      List.iteri
        (fun i (a, b) ->
          let want = 0.02 *. Float.pow 2. (float_of_int i) in
          if b -. a < want then
            Alcotest.failf "gap %d is %.3fs, want >= %.3fs" (i + 1) (b -. a)
              want)
        [ (t1, t2); (t2, t3); (t3, t4) ]
  | l -> Alcotest.failf "%d attempts, want 4" (List.length l));
  let attempts = Atomic.make 0 in
  let flaky ~cancel:_ =
    Atomic.incr attempts;
    raise (Pool.Transient "flaky")
  in
  let config =
    { (quick_config ~deadline:0.05 ()) with Pool.backoff = 0.3; grace = 2. }
  in
  (match Pool.run ~config [ flaky ] with
  | [ Pool.Timed_out _ ] -> ()
  | _ -> Alcotest.fail "deadline during the backoff did not settle the task");
  Alcotest.(check int) "no attempt after the deadline" 1 (Atomic.get attempts)

let test_pool_deadline_cooperative () =
  (* The task spins on Cancel.poll: the deadline must cancel it and the
     pool classify the cancellation as Timed_out. *)
  let task ~cancel:_ =
    while true do
      Cancel.poll ();
      Domain.cpu_relax ()
    done
  in
  match Pool.run ~config:(quick_config ~deadline:0.05 ()) [ task ] with
  | [ Pool.Timed_out d ] -> Alcotest.(check (float 1e-9)) "deadline" 0.05 d
  | _ -> Alcotest.fail "cooperative hang not timed out"

let test_pool_deadline_abandons_wedged () =
  (* A task that never polls is abandoned after deadline + grace; its slot
     still settles as Timed_out and the sibling completes. *)
  let release = Atomic.make false in
  let wedged ~cancel:_ =
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done;
    0
  in
  let outcomes =
    Pool.run
      ~config:(quick_config ~deadline:0.05 ~domains:2 ())
      [ wedged; (fun ~cancel:_ -> 7) ]
  in
  Atomic.set release true;
  match outcomes with
  | [ Pool.Timed_out _; Pool.Done 7 ] -> ()
  | _ -> Alcotest.fail "wedged task not abandoned as Timed_out"

(* A settled task's domain serves the next task: sequential one-task runs
   share a domain (a spawn per run would give each a new id), and a domain
   held by a wedged task is never handed another. *)
let test_pool_reuses_domains () =
  let on_domain () =
    match Pool.run ~config:(quick_config ~domains:1 ()) [ (fun ~cancel:_ -> (Domain.self () :> int)) ] with
    | [ Pool.Done d ] -> d
    | _ -> Alcotest.fail "one-task run did not complete"
  in
  let ids = List.sort_uniq compare (List.init 20 (fun _ -> on_domain ())) in
  if List.length ids > 2 then
    Alcotest.failf "20 sequential runs used %d domains" (List.length ids);
  let release = Atomic.make false and held = Atomic.make (-1) in
  let wedged ~cancel:_ =
    Atomic.set held (Domain.self () :> int);
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done
  in
  (match Pool.run ~config:(quick_config ~deadline:0.05 ~domains:1 ()) [ wedged ] with
  | [ Pool.Timed_out _ ] -> ()
  | _ -> Alcotest.fail "wedged task not abandoned as Timed_out");
  let next = on_domain () in
  Atomic.set release true;
  Alcotest.(check bool) "the wedged task's domain is not reused" true (next <> Atomic.get held)

let test_pool_interrupt_drains () =
  let interrupt = Cancel.create () in
  let first_running = Atomic.make false in
  let tasks =
    List.init 6 (fun i ~cancel:_ ->
        if i = 0 then begin
          Atomic.set first_running true;
          (* Stay in flight until the interrupt lands, then finish. *)
          while not (Cancel.requested interrupt) do
            Domain.cpu_relax ()
          done
        end;
        i)
  in
  let requester =
    Domain.spawn (fun () ->
        while not (Atomic.get first_running) do
          Domain.cpu_relax ()
        done;
        Cancel.request interrupt ~reason:Cancel.interrupt_reason)
  in
  let outcomes =
    Pool.run ~config:(quick_config ~domains:1 ()) ~interrupt tasks
  in
  Domain.join requester;
  (match List.hd outcomes with
  | Pool.Done 0 -> ()
  | _ -> Alcotest.fail "in-flight task did not drain to completion");
  let cancelled =
    List.length
      (List.filter (function Pool.Cancelled -> true | _ -> false) outcomes)
  in
  Alcotest.(check bool)
    "unstarted tasks settle as Cancelled" true (cancelled >= 1)

(* -------------------------------------------- simulator progress + drills *)

let spatial_trace n =
  Gc_trace.Trace.make
    (Gc_trace.Block_map.uniform ~block_size:4)
    (Array.init n (fun i -> (i * 3) mod 256))

let test_simulator_progress_hook () =
  let calls = ref [] in
  let trace = spatial_trace 10_000 in
  let p = Gc_cache.Fifo.create ~k:32 in
  let _ =
    Gc_cache.Simulator.run ~check:false
      ~progress:(fun i -> calls := i :: !calls)
      p trace
  in
  Alcotest.(check (list int))
    "fires on access 0 and every 4096" [ 8192; 4096; 0 ] !calls

let test_simulator_progress_cancels () =
  let trace = spatial_trace 100_000 in
  let token = Cancel.create () in
  Cancel.request token ~reason:Cancel.deadline_reason;
  match
    Cancel.with_current token (fun () ->
        Gc_cache.Simulator.run ~check:false
          ~progress:(fun _ -> Cancel.poll ())
          (Gc_cache.Fifo.create ~k:32) trace)
  with
  | _ -> Alcotest.fail "cancelled simulation ran to completion"
  | exception Cancel.Cancelled reason ->
      Alcotest.(check string) "reason" Cancel.deadline_reason reason

let test_broken_hang_times_out () =
  let trace = spatial_trace 4_000 in
  let blocks = trace.Gc_trace.Trace.blocks in
  let task ~cancel:_ =
    Gc_cache.Simulator.run ~check:false
      ~progress:(fun _ -> Cancel.poll ())
      (Gc_cache.Registry.make "broken:hang@100" ~k:64 ~blocks ~seed:1)
      trace
  in
  match Pool.run ~config:(quick_config ~deadline:0.1 ()) [ task ] with
  | [ Pool.Timed_out _ ] -> ()
  | _ -> Alcotest.fail "hanging policy not timed out"

let test_broken_flaky_retries () =
  let trace = spatial_trace 4_000 in
  let blocks = trace.Gc_trace.Trace.blocks in
  let task ~cancel:_ =
    Gc_cache.Simulator.run ~check:false
      ~progress:(fun _ -> Cancel.poll ())
      (Gc_cache.Registry.make "broken:flaky@100" ~k:64 ~blocks ~seed:1)
      trace
  in
  (match Pool.run ~config:(quick_config ()) [ task ] with
  | [ Pool.Done m ] ->
      Alcotest.(check int)
        "full trace simulated on retry" 4_000
        m.Gc_cache.Metrics.accesses
  | _ -> Alcotest.fail "flaky policy did not succeed on retry");
  (* Without retries the transient failure surfaces. *)
  match Pool.run ~config:(quick_config ~retries:0 ()) [ task ] with
  | [ Pool.Failed (Pool.Transient _) ] -> ()
  | _ -> Alcotest.fail "flaky policy without retries not Failed"

(* ------------------------------------------------------------ checkpoint *)

let to_error ~key ~kind ~message =
  Json.Obj
    [
      ("cell", Json.String key);
      ("kind", Json.String kind);
      ("message", Json.String message);
    ]

let ck_cells results_of =
  List.init 6 (fun i ->
      (Printf.sprintf "c%d" i, fun ~cancel:_ -> results_of i))

let test_checkpoint_resume_roundtrip () =
  with_tmp ".jsonl" (fun path ->
      let ran = Atomic.make 0 in
      let make_cells () =
        ck_cells (fun i ->
            Atomic.incr ran;
            Json.Obj [ ("i", Json.Int i); ("sq", Json.Int (i * i)) ])
      in
      let reference, _ =
        Checkpoint.run ~config:(quick_config ()) ~to_error (make_cells ())
      in
      (* First run: interrupted before it starts, with a journal. *)
      Atomic.set ran 0;
      let interrupt = Cancel.create () in
      let half = Atomic.make 0 in
      let cells_half =
        List.init 6 (fun i ->
            ( Printf.sprintf "c%d" i,
              fun ~cancel:_ ->
                (* After three cells, request the interrupt. *)
                if Atomic.fetch_and_add half 1 >= 2 then
                  Cancel.request interrupt ~reason:Cancel.interrupt_reason;
                Json.Obj [ ("i", Json.Int i); ("sq", Json.Int (i * i)) ] ))
      in
      let partial, pstats =
        Checkpoint.run
          ~config:(quick_config ~domains:1 ())
          ~interrupt ~journal:path ~meta ~to_error cells_half
      in
      Alcotest.(check bool) "interrupted" true pstats.Checkpoint.interrupted;
      Alcotest.(check bool)
        "some cells cancelled" true
        (pstats.Checkpoint.cancelled > 0);
      Alcotest.(check bool)
        "partial results incomplete" true
        (List.exists (fun c -> c.Checkpoint.payload = None) partial);
      (* Resume: completes the grid without re-running journaled cells. *)
      Atomic.set ran 0;
      let final, fstats =
        Checkpoint.run ~config:(quick_config ()) ~journal:path ~resume:true
          ~meta ~to_error (make_cells ())
      in
      Alcotest.(check int)
        "resumed count matches journal"
        (pstats.Checkpoint.total - pstats.Checkpoint.cancelled)
        fstats.Checkpoint.resumed;
      Alcotest.(check int)
        "only missing cells re-ran" fstats.Checkpoint.ran (Atomic.get ran);
      Alcotest.(check bool) "not interrupted" false fstats.Checkpoint.interrupted;
      (* Final payloads identical to an uninterrupted run, in order. *)
      List.iter2
        (fun (a : Checkpoint.cell) (b : Checkpoint.cell) ->
          Alcotest.(check string) "key order" a.Checkpoint.key b.Checkpoint.key;
          match (a.Checkpoint.payload, b.Checkpoint.payload) with
          | Some pa, Some pb ->
              Alcotest.(check string)
                "payload bytes" (Json.to_string pa) (Json.to_string pb)
          | _ -> Alcotest.fail "missing payload after resume")
        reference final)

let test_checkpoint_journals_failures () =
  with_tmp ".jsonl" (fun path ->
      let ran = Atomic.make 0 in
      let cells () =
        ck_cells (fun i ->
            Atomic.incr ran;
            if i = 3 then failwith "deterministic crash"
            else Json.Obj [ ("i", Json.Int i) ])
      in
      let first, _ =
        Checkpoint.run ~config:(quick_config ()) ~journal:path ~meta ~to_error
          (cells ())
      in
      let failed = List.nth first 3 in
      (match failed.Checkpoint.payload with
      | Some p ->
          Alcotest.(check bool)
            "failure shaped by to_error" true
            (Json.member "kind" p = Some (Json.String "exception"))
      | None -> Alcotest.fail "failed cell has no payload");
      (* A deterministic failure is journaled: resume re-runs nothing. *)
      Atomic.set ran 0;
      let _, stats =
        Checkpoint.run ~config:(quick_config ()) ~journal:path ~resume:true
          ~meta ~to_error (cells ())
      in
      Alcotest.(check int) "all resumed" 6 stats.Checkpoint.resumed;
      Alcotest.(check int) "nothing re-ran" 0 (Atomic.get ran))

let test_checkpoint_meta_mismatch () =
  with_tmp ".jsonl" (fun path ->
      let cells = ck_cells (fun i -> Json.Int i) in
      let _ =
        Checkpoint.run ~config:(quick_config ()) ~journal:path ~meta ~to_error
          cells
      in
      match
        Checkpoint.run ~config:(quick_config ()) ~journal:path ~resume:true
          ~meta:(Json.Obj [ ("tool", Json.String "other") ])
          ~to_error cells
      with
      | _ -> Alcotest.fail "mismatched journal resumed"
      | exception Failure m ->
          Alcotest.(check bool)
            "names the mismatch" true
            (Test_util.contains m "metadata mismatch"))

(* Multi-domain cells reproduce the serial simulation results, in input
   order. *)
let test_checkpoint_sweep_matches_serial () =
  let trace =
    Gc_trace.Generators.spatial_mix (Gc_trace.Rng.create 99) ~n:20_000
      ~universe:4096 ~block_size:16 ~p_spatial:0.6
  in
  let ks = [ 64; 128; 256; 512 ] in
  let misses k =
    Test_util.run_misses
      (Gc_cache.Registry.make "iblp" ~k ~blocks:trace.Gc_trace.Trace.blocks
         ~seed:1)
      trace
  in
  let cells, _ =
    Checkpoint.run
      ~config:(quick_config ~domains:3 ())
      ~to_error
      (List.map
         (fun k -> (string_of_int k, fun ~cancel:_ -> Json.Int (misses k)))
         ks)
  in
  Alcotest.(check (list (pair string int)))
    "same results"
    (List.map (fun k -> (string_of_int k, misses k)) ks)
    (List.map
       (fun c ->
         match c.Checkpoint.payload with
         | Some (Json.Int m) -> (c.Checkpoint.key, m)
         | _ -> Alcotest.failf "cell %s has no result" c.Checkpoint.key)
       cells)

(* -------------------------------------------------------- manifest codecs *)

let test_manifest_run_roundtrip () =
  let open Gc_obs.Manifest in
  let runs =
    [
      {
        policy = "lru";
        metrics =
          [ ("misses", Json.Int 12); ("hit_rate", Json.Float 0.3333333333) ];
        histograms = Some (Json.Obj [ ("h", Json.Array [ Json.Int 1 ]) ]);
        events = [ ("access", 100); ("miss", 12) ];
        error = None;
      };
      {
        policy = "broken:crash@5@uniform";
        metrics = [];
        histograms = None;
        events = [];
        error = Some ("timeout", "cell exceeded its 2s deadline");
      };
    ]
  in
  List.iter
    (fun run ->
      let j = run_to_json run in
      match run_of_json j with
      | Error m -> Alcotest.fail m
      | Ok run' ->
          Alcotest.(check string)
            "byte-identical re-encoding" (Json.to_string j)
            (Json.to_string (run_to_json run')))
    runs;
  match run_of_json (Json.Array []) with
  | Ok _ -> Alcotest.fail "non-object decoded as run"
  | Error _ -> ()

let () =
  Alcotest.run "gc_exec"
    [
      ( "json_parse",
        [
          Alcotest.test_case "round-trip cases" `Quick
            test_parse_roundtrip_cases;
          test_parse_roundtrip_qcheck;
          Alcotest.test_case "malformed inputs rejected" `Quick
            test_parse_errors;
        ] );
      ( "atomic_export",
        [
          Alcotest.test_case "write then rename" `Quick test_write_atomic;
          Alcotest.test_case "failure leaves no artifact" `Quick
            test_write_atomic_failure_keeps_old;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round-trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail dropped" `Quick test_journal_torn_tail;
          Alcotest.test_case "corruption positioned" `Quick
            test_journal_corruption_positioned;
          Alcotest.test_case "missing header rejected" `Quick
            test_journal_missing_header;
          Alcotest.test_case "resume truncates and appends" `Quick
            test_journal_resume_appends;
        ] );
      ( "pool",
        [
          Alcotest.test_case "results in input order" `Quick
            test_pool_order_and_results;
          Alcotest.test_case "failure isolated to its slot" `Quick
            test_pool_failure_isolated;
          Alcotest.test_case "transient retries" `Quick
            test_pool_transient_retry;
          Alcotest.test_case "backoff schedule" `Quick
            test_pool_backoff_schedule;
          Alcotest.test_case "cooperative deadline" `Quick
            test_pool_deadline_cooperative;
          Alcotest.test_case "wedged task abandoned" `Quick
            test_pool_deadline_abandons_wedged;
          Alcotest.test_case "settled task's domain reused" `Quick
            test_pool_reuses_domains;
          Alcotest.test_case "interrupt drains" `Quick
            test_pool_interrupt_drains;
        ] );
      ( "supervised_simulation",
        [
          Alcotest.test_case "progress hook cadence" `Quick
            test_simulator_progress_hook;
          Alcotest.test_case "progress hook cancels" `Quick
            test_simulator_progress_cancels;
          Alcotest.test_case "broken:hang times out" `Quick
            test_broken_hang_times_out;
          Alcotest.test_case "broken:flaky retries" `Quick
            test_broken_flaky_retries;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "interrupt/resume round-trip" `Quick
            test_checkpoint_resume_roundtrip;
          Alcotest.test_case "failures journaled" `Quick
            test_checkpoint_journals_failures;
          Alcotest.test_case "meta mismatch refused" `Quick
            test_checkpoint_meta_mismatch;
          Alcotest.test_case "sweep matches serial" `Quick
            test_checkpoint_sweep_matches_serial;
        ] );
      ( "manifest_codec",
        [
          Alcotest.test_case "run round-trip" `Quick
            test_manifest_run_roundtrip;
        ] );
    ]
