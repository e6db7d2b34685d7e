(* End-to-end tests of the installed CLI surface: golden `gctrace validate`
   output, the exit-code contract (0 ok, 1 runtime failure, 2 usage error,
   3 model violation, 130 interrupted) shared by every gc* binary, and the
   supervised-sweep features (--journal/--resume checkpointing, --deadline
   timeouts).

   The binaries are dune deps of this test; cwd is _build/default/test, so
   they live at ../bin/*.exe.

   The "soak" group is the interrupt-and-resume e2e drill: it spawns a
   real journaled sweep, SIGINTs it mid-run, asserts the 130 exit and the
   interrupted manifest stamp, then resumes and checks the final artifacts
   are byte-identical to an uninterrupted run.  It only runs when GC_SOAK
   is set — `dune build @soak`. *)

open Gc_trace

let gcsim = "../bin/gcsim.exe"
let gctrace = "../bin/gctrace.exe"
let gcexp = "../bin/gcexp.exe"

(* Run a shell command, returning (exit code, combined stdout+stderr). *)
let exec ?stdin_from cmd =
  let out = Filename.temp_file "gc_cli" ".out" in
  let redirect_in =
    match stdin_from with
    | None -> ""
    | Some path -> Printf.sprintf " < %s" (Filename.quote path)
  in
  let code =
    Sys.command
      (Printf.sprintf "%s%s > %s 2>&1" cmd redirect_in (Filename.quote out))
  in
  let ic = open_in_bin out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, s)

(* Like [exec], but with stdout and stderr captured separately (the sweep
   tests compare CSV on stdout while asserting diagnostics on stderr). *)
let exec2 cmd =
  let out = Filename.temp_file "gc_cli" ".out" in
  let err = Filename.temp_file "gc_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s > %s 2> %s" cmd (Filename.quote out)
         (Filename.quote err))
  in
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let o = read out and e = read err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let count_lines path =
  String.fold_left
    (fun n c -> if c = '\n' then n + 1 else n)
    0 (read_file path)

let index_of haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    if i + nl > hl then None
    else if String.sub haystack i nl = needle then Some i
    else go (i + 1)
  in
  go 0

(* Manifest comparison modulo the volatile wall-clock stamp. *)
let without_wall_time s =
  String.concat "\n"
    (List.filter
       (fun l -> not (Test_util.contains l "wall_time_s"))
       (String.split_on_char '\n' s))

let with_tmp suffix f =
  let path = Filename.temp_file "gc_cli" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let sample_trace () =
  Trace.make (Block_map.uniform ~block_size:4) [| 0; 1; 2; 8; 9; 4; 5; 0 |]

let check_run msg ~code ~output cmd =
  let c, o = exec cmd in
  Alcotest.(check int) (msg ^ " exit code") code c;
  Alcotest.(check string) (msg ^ " output") output o

(* --------------------------------------------------------------- validate *)

let test_validate_ok () =
  with_tmp ".gct" (fun path ->
      Trace_io.save path (sample_trace ());
      check_run "validate ok" ~code:0
        ~output:
          (Printf.sprintf "%s: ok (8 requests, 7 items, block size 4)\n" path)
        (Printf.sprintf "%s validate %s" gctrace (Filename.quote path)))

let test_validate_stdin () =
  with_tmp ".gct" (fun path ->
      Trace_io.save path (sample_trace ());
      let code, output =
        exec ~stdin_from:path (Printf.sprintf "%s validate" gctrace)
      in
      Alcotest.(check int) "stdin exit code" 0 code;
      Alcotest.(check string)
        "stdin output" "stdin: ok (8 requests, 7 items, block size 4)\n" output)

let test_validate_invalid_text () =
  with_tmp ".gct" (fun path ->
      let oc = open_out path in
      output_string oc "gctrace 1\nblocks uniform 4\nrequests 3\n1 2 x\n";
      close_out oc;
      check_run "validate invalid" ~code:1
        ~output:
          (Printf.sprintf "%s: invalid: line 4: expected integer, got \"x\"\n"
             path)
        (Printf.sprintf "%s validate %s" gctrace (Filename.quote path)))

let test_validate_checksum () =
  with_tmp ".gctb" (fun path ->
      Trace_io.save_binary path (sample_trace ());
      (* Flip the final checksum byte. *)
      let ic = open_in_bin path in
      let bytes = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let b = Bytes.of_string bytes in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xFF));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      let code, output =
        exec (Printf.sprintf "%s validate %s" gctrace (Filename.quote path))
      in
      Alcotest.(check int) "checksum exit code" 1 code;
      Alcotest.(check bool)
        "mentions checksum mismatch" true
        (Test_util.contains output "checksum mismatch"))

let test_validate_lenient () =
  with_tmp ".gct" (fun path ->
      let oc = open_out path in
      output_string oc "gctrace 1\nblocks uniform 4\nrequests 6\n1 2 x 3 4\n";
      close_out oc;
      check_run "validate lenient" ~code:1
        ~output:
          (Printf.sprintf
             "%s: recovered 4 requests, dropped 2\n\
             \  line 4: bad request \"x\" dropped\n\
             \  line 5: 1 of 6 declared requests missing\n"
             path)
        (Printf.sprintf "%s validate --lenient %s" gctrace
           (Filename.quote path)))

let test_validate_lenient_clean () =
  with_tmp ".gct" (fun path ->
      Trace_io.save path (sample_trace ());
      check_run "validate lenient clean" ~code:0
        ~output:(Printf.sprintf "%s: recovered 8 requests, dropped 0\n" path)
        (Printf.sprintf "%s validate --lenient %s" gctrace
           (Filename.quote path)))

(* ------------------------------------------------------------- exit codes *)

let saved_trace f =
  with_tmp ".gct" (fun path ->
      Trace_io.save path
        (Trace.make (Block_map.uniform ~block_size:4)
           (Array.init 400 (fun i -> (i * 7) mod 64)));
      f path)

let test_exit_ok () =
  saved_trace (fun path ->
      let code, _ =
        exec (Printf.sprintf "%s run -p lru -k 16 %s" gcsim path)
      in
      Alcotest.(check int) "clean run exits 0" 0 code)

let test_exit_runtime () =
  let code, output =
    exec (Printf.sprintf "%s run -p lru -k 16 /nonexistent.gct" gcsim)
  in
  Alcotest.(check int) "missing trace exits 1" 1 code;
  Alcotest.(check bool)
    "names the file" true
    (Test_util.contains output "/nonexistent.gct")

let test_exit_usage () =
  saved_trace @@ fun trace ->
  List.iter
    (fun (msg, cmd, needle) ->
      let code, output = exec cmd in
      Alcotest.(check int) (msg ^ " exits 2") 2 code;
      Alcotest.(check bool)
        (msg ^ " lists choices") true
        (Test_util.contains output needle))
    [
      ( "unknown policy",
        Printf.sprintf "%s run -p nosuch -k 16 /dev/null" gcsim,
        "unknown policy" );
      ( "unknown workload kind",
        Printf.sprintf "%s gen --kind bogus" gctrace,
        "sequential" );
      ( "unknown construction",
        Printf.sprintf "%s h-sweep -c bogus" gcexp,
        "thm2" );
      ( "unknown subcommand",
        Printf.sprintf "%s frobnicate" gcsim,
        "unknown command" );
      ( "bad inject spec",
        Printf.sprintf "%s run -p lru --inject nosuch /dev/null" gcsim,
        "phantom-hit" );
      ( "run below the policy's minimum k",
        Printf.sprintf "%s run -p lru -k 0 %s" gcsim trace,
        "k must be >= 1" );
      ( "suite below the policy's minimum k",
        Printf.sprintf "%s suite -p lru -k 0" gcsim,
        "k must be >= 1" );
    ]

(* Every help page advertises the shared exit contract, never cmdliner's
   default 123/124/125, which Cli_common.eval remaps. *)
let test_help_exit_status () =
  List.iter
    (fun (tool, subcommands) ->
      List.iter
        (fun sub ->
          let cmd = String.concat " " [ "../bin/" ^ tool ^ ".exe"; sub ] in
          let code, output = exec (cmd ^ " --help=plain") in
          Alcotest.(check int) (cmd ^ " --help exits 0") 0 code;
          Alcotest.(check bool)
            (cmd ^ " lists exit 2") true
            (Test_util.contains output "on usage errors");
          Alcotest.(check bool)
            (cmd ^ " does not advertise 124") false
            (Test_util.contains output "124"))
        ("" :: subcommands))
    [
      ("gcsim", [ "run"; "suite"; "attack" ]);
      ("gctrace", [ "gen"; "stats"; "validate"; "locality" ]);
      ("gcbounds", [ "table1"; "table2"; "figure3"; "figure6"; "point" ]);
      ("gcexp", [ "miss-curve"; "split-sweep"; "h-sweep" ]);
      ("gcserved", [ "serve"; "supervise"; "fleet"; "client" ]);
      ("gclint", [ "check"; "rules"; "explain" ]);
      ("gcprof", [ "compare" ]);
      ("gcchaos", [ "drill"; "storm"; "partition" ]);
      ("gcanalyze", [ "list"; "run"; "check" ]);
    ]

let test_exit_violation () =
  saved_trace (fun path ->
      let code, output =
        exec
          (Printf.sprintf "%s run -p lru -k 16 --inject phantom-hit %s" gcsim
             path)
      in
      Alcotest.(check int) "injected fault exits 3" 3 code;
      Alcotest.(check bool)
        "drill reports detection" true
        (Test_util.contains output "caught by the audit"))

(* ------------------------------------------------------ suite degradation *)

let test_suite_crash_manifest () =
  with_tmp ".json" (fun json_path ->
      let code, output =
        exec
          (Printf.sprintf
             "%s suite -k 64 --seed 7 --policy lru --policy broken:crash@50 \
              --json %s"
             gcsim (Filename.quote json_path))
      in
      Alcotest.(check int) "suite with crashing policy exits 1" 1 code;
      Alcotest.(check bool)
        "table shows error cells" true
        (Test_util.contains output "error");
      let open Gc_obs in
      let manifest = Test_util.parse_json_file json_path in
      let runs =
        match Json.member "runs" manifest with
        | Some (Json.Array rs) -> rs
        | _ -> Alcotest.fail "manifest has no runs array"
      in
      let errors =
        List.filter_map
          (fun r ->
            match (Json.member "policy" r, Json.member "error" r) with
            | Some (Json.String p), Some err -> Some (p, err)
            | _ -> None)
          runs
      in
      (* 8 standard workloads: every broken cell must carry a structured
         error, and no lru cell may. *)
      Alcotest.(check int) "eight error slots" 8 (List.length errors);
      List.iter
        (fun (p, err) ->
          Alcotest.(check bool)
            "error slots belong to broken" true
            (Test_util.contains p "broken:crash@50@");
          match Json.member "kind" err with
          | Some (Json.String "exception") -> ()
          | _ -> Alcotest.fail "error slot missing kind \"exception\"")
        errors)

(* ------------------------------------------------------------ supervision *)

(* Keep the first [n] lines of a journal, simulating a run that died after
   completing n-1 cells (line 1 is the @meta header). *)
let truncate_journal path n =
  let lines = String.split_on_char '\n' (read_file path) in
  let kept = List.filteri (fun i _ -> i < n) lines in
  write_file path (String.concat "\n" kept ^ "\n")

let sweep_cmd ?(policies = [ "lru"; "fifo" ]) ?(grid = "--k-min 16 --k-max 64 --steps 2")
    ?(extra = "") ?json trace =
  Printf.sprintf "%s miss-curve %s %s --seed 3 --domains 1%s%s %s" gcexp
    (String.concat " " (List.map (fun p -> "--policy " ^ p) policies))
    grid
    (match json with
    | None -> ""
    | Some j -> Printf.sprintf " --json %s" (Filename.quote j))
    (if extra = "" then "" else " " ^ extra)
    (Filename.quote trace)

(* A journaled sweep truncated after two cells must resume to the exact
   CSV and manifest an uninterrupted run produces, re-running only the
   missing cells. *)
let test_resume_roundtrip () =
  saved_trace (fun trace ->
      with_tmp ".jsonl" (fun journal ->
          with_tmp ".json" (fun m_ref ->
              with_tmp ".json" (fun m_res ->
                  let code, csv_ref, _ =
                    exec2
                      (sweep_cmd ~json:m_ref
                         ~extra:
                           (Printf.sprintf "--journal %s"
                              (Filename.quote journal))
                         trace)
                  in
                  Alcotest.(check int) "journaled run exits 0" 0 code;
                  (* 2 policies x {16,32,64} = 6 cells + the meta header. *)
                  Alcotest.(check int) "journal complete" 7
                    (count_lines journal);
                  truncate_journal journal 3;
                  let code, csv_res, err =
                    exec2
                      (sweep_cmd ~json:m_res
                         ~extra:
                           (Printf.sprintf "--resume %s"
                              (Filename.quote journal))
                         trace)
                  in
                  Alcotest.(check int) "resumed run exits 0" 0 code;
                  Alcotest.(check bool)
                    "reports resumed cells" true
                    (Test_util.contains err "gcexp: resumed 2 of 6 cells");
                  Alcotest.(check string) "CSV identical" csv_ref csv_res;
                  Alcotest.(check string)
                    "manifest identical modulo wall time"
                    (without_wall_time (read_file m_ref))
                    (without_wall_time (read_file m_res))))))

(* Flipping one payload digit must be caught by the per-line checksum with
   a line-positioned diagnostic, and the resume refused. *)
let test_corrupt_journal_rejected () =
  saved_trace (fun trace ->
      with_tmp ".jsonl" (fun journal ->
          let code, _, _ =
            exec2
              (sweep_cmd ~grid:"--k-min 16 --k-max 32 --steps 1"
                 ~extra:
                   (Printf.sprintf "--journal %s" (Filename.quote journal))
                 trace)
          in
          Alcotest.(check int) "journaled run exits 0" 0 code;
          let text = read_file journal in
          let lines = String.split_on_char '\n' text in
          let corrupt line =
            (* Bump the digit after the first "k": field of the payload. *)
            match index_of line {|"k":|} with
            | None -> Alcotest.fail "journal line has no k field"
            | Some i ->
                let b = Bytes.of_string line in
                let d = Bytes.get b (i + 4) in
                Bytes.set b (i + 4) (if d = '9' then '8' else Char.chr (Char.code d + 1));
                Bytes.to_string b
          in
          let lines =
            List.mapi (fun i l -> if i = 1 then corrupt l else l) lines
          in
          write_file journal (String.concat "\n" lines);
          let code, _, err =
            exec2
              (sweep_cmd ~grid:"--k-min 16 --k-max 32 --steps 1"
                 ~extra:
                   (Printf.sprintf "--resume %s" (Filename.quote journal))
                 trace)
          in
          Alcotest.(check int) "corrupted journal exits 1" 1 code;
          Alcotest.(check bool)
            "diagnostic names the line" true
            (Test_util.contains err "line 2");
          Alcotest.(check bool)
            "diagnostic names the checksum" true
            (Test_util.contains err "checksum")))

(* A hanging cell must be killed at its deadline and surface as a timeout
   slot in the manifest, without poisoning the healthy policy's cells. *)
let test_deadline_timeout_slot () =
  saved_trace (fun trace ->
      with_tmp ".json" (fun json ->
          let code, _, _ =
            exec2
              (sweep_cmd
                 ~policies:[ "lru"; "broken:hang@100" ]
                 ~grid:"--k-min 16 --k-max 32 --steps 1" ~json
                 ~extra:"--deadline 0.3" trace)
          in
          Alcotest.(check int) "sweep with hung cells exits 1" 1 code;
          let manifest = read_file json in
          Alcotest.(check bool)
            "manifest records timeout slots" true
            (Test_util.contains manifest "timeout");
          Alcotest.(check bool)
            "timeout message names the deadline" true
            (Test_util.contains manifest "exceeded its 0.3s deadline");
          Alcotest.(check bool)
            "healthy cells unaffected" true
            (Test_util.contains manifest "\"lru\"")))

(* gcsim suite shares the checkpoint runtime: a truncated journal resumes
   to a manifest byte-identical to the uninterrupted run's. *)
let test_suite_resume_roundtrip () =
  with_tmp ".jsonl" (fun journal ->
      with_tmp ".json" (fun m_ref ->
          with_tmp ".json" (fun m_res ->
              let suite_cmd extra json =
                Printf.sprintf
                  "%s suite -k 64 --seed 7 --policy lru %s --json %s" gcsim
                  extra (Filename.quote json)
              in
              let code, _, _ =
                exec2
                  (suite_cmd
                     (Printf.sprintf "--journal %s" (Filename.quote journal))
                     m_ref)
              in
              Alcotest.(check int) "journaled suite exits 0" 0 code;
              truncate_journal journal 4;
              let code, _, err =
                exec2
                  (suite_cmd
                     (Printf.sprintf "--resume %s" (Filename.quote journal))
                     m_res)
              in
              Alcotest.(check int) "resumed suite exits 0" 0 code;
              Alcotest.(check bool)
                "reports resumed cells" true
                (Test_util.contains err "gcsim: resumed 3 of 8 cells");
              Alcotest.(check string)
                "suite manifest identical modulo wall time"
                (without_wall_time (read_file m_ref))
                (without_wall_time (read_file m_res)))))

(* ------------------------------------------------------------------- soak *)

(* The interrupt-and-resume e2e drill: a real journaled sweep is SIGINTed
   mid-run, must exit 130 with an interrupted-stamped partial manifest,
   and the resumed run must reproduce the uninterrupted artifacts exactly.
   Heavy (tens of seconds), so it only runs under `dune build @soak`. *)

let soak_policies = [ "lru"; "fifo"; "iblp" ]
let soak_cells = 21 (* 3 policies x 7 grid points *)

let soak_args ?journal ?resume ~json trace =
  List.concat
    [
      [ "miss-curve" ];
      List.concat_map (fun p -> [ "--policy"; p ]) soak_policies;
      [ "--k-min"; "64"; "--k-max"; "4096"; "--steps"; "6" ];
      [ "--seed"; "11"; "--domains"; "2" ];
      (match journal with Some j -> [ "--journal"; j ] | None -> []);
      (match resume with Some j -> [ "--resume"; j ] | None -> []);
      [ "--json"; json; trace ];
    ]

let soak_cmd ?journal ?resume ~json trace =
  String.concat " "
    (gcexp :: List.map Filename.quote (soak_args ?journal ?resume ~json trace))

let test_soak_interrupt_resume () =
  match Sys.getenv_opt "GC_SOAK" with
  | None ->
      print_endline
        "soak drill skipped (GC_SOAK unset; run it with `dune build @soak`)"
  | Some _ ->
      with_tmp ".gctb" (fun trace ->
          Trace_io.save_binary trace
            (Trace.make (Block_map.uniform ~block_size:16)
               (Array.init 1_500_000 (fun i -> (i * 7919 + (i / 97)) mod 65536)));
          with_tmp ".jsonl" (fun journal ->
              with_tmp ".json" (fun m_int ->
                  with_tmp ".json" (fun m_res ->
                      with_tmp ".json" (fun m_ref ->
                          with_tmp ".out" (fun out ->
                              with_tmp ".err" (fun err ->
                                  (* Spawn the journaled sweep directly so we
                                     can signal the gcexp process itself. *)
                                  let out_fd =
                                    Unix.openfile out
                                      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
                                      0o600
                                  in
                                  let err_fd =
                                    Unix.openfile err
                                      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
                                      0o600
                                  in
                                  let pid =
                                    Unix.create_process gcexp
                                      (Array.of_list
                                         (gcexp
                                         :: soak_args ~journal ~json:m_int
                                              trace))
                                      Unix.stdin out_fd err_fd
                                  in
                                  Unix.close out_fd;
                                  Unix.close err_fd;
                                  (* Wait for two completed cells, then
                                     interrupt. *)
                                  let give_up = Unix.gettimeofday () +. 120. in
                                  let rec wait_for_progress () =
                                    if Unix.gettimeofday () > give_up then
                                      Alcotest.fail
                                        "soak: journal never reached 2 cells"
                                    else if
                                      Sys.file_exists journal
                                      && count_lines journal >= 3
                                    then ()
                                    else begin
                                      Gc_exec.Pool.nap 0.02;
                                      wait_for_progress ()
                                    end
                                  in
                                  wait_for_progress ();
                                  Unix.kill pid Sys.sigint;
                                  let _, status = Unix.waitpid [] pid in
                                  (match status with
                                  | Unix.WEXITED 130 -> ()
                                  | Unix.WEXITED n ->
                                      Alcotest.fail
                                        (Printf.sprintf
                                           "interrupted run exited %d, want \
                                            130"
                                           n)
                                  | _ ->
                                      Alcotest.fail
                                        "interrupted run killed by signal");
                                  Alcotest.(check bool)
                                    "drain message printed" true
                                    (Test_util.contains (read_file err)
                                       "interrupt: draining");
                                  Alcotest.(check bool)
                                    "partial manifest stamped interrupted"
                                    true
                                    (Test_util.contains (read_file m_int)
                                       "interrupted");
                                  let cells_done = count_lines journal - 1 in
                                  Alcotest.(check bool)
                                    "interrupt left work to resume" true
                                    (cells_done >= 2
                                    && cells_done < soak_cells);
                                  (* Resume must pick up the survivors... *)
                                  let code, csv_res, err_res =
                                    exec2
                                      (soak_cmd ~resume:journal ~json:m_res
                                         trace)
                                  in
                                  Alcotest.(check int) "resume exits 0" 0
                                    code;
                                  Alcotest.(check bool)
                                    "resume reports journal cells" true
                                    (Test_util.contains err_res
                                       (Printf.sprintf
                                          "gcexp: resumed %d of %d cells"
                                          cells_done soak_cells));
                                  (* ...and land on the same artifacts as an
                                     uninterrupted run. *)
                                  let code, csv_ref, _ =
                                    exec2 (soak_cmd ~json:m_ref trace)
                                  in
                                  Alcotest.(check int) "reference exits 0" 0
                                    code;
                                  Alcotest.(check string)
                                    "resumed CSV identical" csv_ref csv_res;
                                  Alcotest.(check string)
                                    "resumed manifest identical modulo wall \
                                     time"
                                    (without_wall_time (read_file m_ref))
                                    (without_wall_time (read_file m_res));
                                  Alcotest.(check bool)
                                    "final manifest not marked interrupted"
                                    false
                                    (Test_util.contains (read_file m_res)
                                       "interrupted"))))))))

let () =
  Alcotest.run "gc_cli"
    [
      ( "validate",
        [
          Alcotest.test_case "valid text file" `Quick test_validate_ok;
          Alcotest.test_case "stdin" `Quick test_validate_stdin;
          Alcotest.test_case "invalid text diagnostics" `Quick
            test_validate_invalid_text;
          Alcotest.test_case "binary checksum mismatch" `Quick
            test_validate_checksum;
          Alcotest.test_case "lenient recovery report" `Quick
            test_validate_lenient;
          Alcotest.test_case "lenient clean file" `Quick
            test_validate_lenient_clean;
        ] );
      ( "exit_codes",
        [
          Alcotest.test_case "0 on success" `Quick test_exit_ok;
          Alcotest.test_case "1 on runtime failure" `Quick test_exit_runtime;
          Alcotest.test_case "2 on usage errors" `Quick test_exit_usage;
          Alcotest.test_case "3 on model violation" `Quick test_exit_violation;
          Alcotest.test_case "help lists the real codes" `Quick
            test_help_exit_status;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "suite crash recorded in manifest" `Quick
            test_suite_crash_manifest;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "journal resume round-trip" `Quick
            test_resume_roundtrip;
          Alcotest.test_case "corrupted journal rejected" `Quick
            test_corrupt_journal_rejected;
          Alcotest.test_case "deadline kills hung cell" `Quick
            test_deadline_timeout_slot;
          Alcotest.test_case "suite resume round-trip" `Quick
            test_suite_resume_roundtrip;
        ] );
      ( "soak",
        [
          Alcotest.test_case "interrupt-and-resume drill" `Slow
            test_soak_interrupt_resume;
        ] );
    ]
