(* Shared CLI plumbing for the gc* binaries: one exit-code contract,
   diagnostic-preserving trace loading, and validated argument converters.

   Exit codes:
     0  success
     1  runtime failure (unreadable/corrupt trace, I/O error, policy crash)
     2  usage error (unknown flag, unknown policy/kind/construction)
     3  model violation (the shadow audit caught an inconsistent policy)
   130  interrupted (SIGINT/SIGTERM; partial artifacts were written) *)

open Cmdliner

let ok = 0
let runtime_error = 1
let usage_error = 2
let model_violation = 3
let interrupted = Gc_exec.Supervisor.exit_interrupted

(* The EXIT STATUS entries every binary's --help shows (passed as
   [Cmd.info ~exits]); a tool that can also return 3 or 130 appends its
   own entry. *)
let exits =
  [
    Cmd.Exit.info ok ~doc:"on success.";
    Cmd.Exit.info runtime_error
      ~doc:"on runtime failure (unreadable input, I/O error, failed run).";
    Cmd.Exit.info usage_error ~doc:"on usage errors.";
  ]

(* Post-parse failures that already know their exit code. *)
exception Fatal of int * string

let fail_runtime fmt =
  Printf.ksprintf (fun m -> raise (Fatal (runtime_error, m))) fmt

let fail_usage fmt =
  Printf.ksprintf (fun m -> raise (Fatal (usage_error, m))) fmt

let fail_model fmt =
  Printf.ksprintf (fun m -> raise (Fatal (model_violation, m))) fmt

(* ------------------------------------------------------------- trace I/O *)

let read_trace path =
  let result =
    if path = "-" then Gc_trace.Trace_io.of_channel_result stdin
    else Gc_trace.Trace_io.load_any_result path
  in
  match result with
  | Ok t -> t
  | Error e ->
      fail_runtime "%s: %s"
        (if path = "-" then "stdin" else path)
        (Gc_trace.Trace_io.string_of_error e)

let write_trace path t =
  if path = "-" then Gc_trace.Trace_io.to_channel stdout t
  else if Filename.check_suffix path ".gctb" then
    Gc_trace.Trace_io.save_binary path t
  else Gc_trace.Trace_io.save path t

(* Bad construction parameters (a k below a policy's minimum, say) are a
   usage problem for the whole invocation, not a per-policy runtime
   failure: reject them before anything runs or a journal is touched. *)
let check_construction ~blocks ~seed ~ks names =
  List.iter
    (fun k ->
      List.iter
        (fun name ->
          match Gc_cache.Registry.make name ~k ~blocks ~seed with
          | _ -> ()
          | exception Invalid_argument msg -> fail_usage "%s" msg)
        names)
    ks

(* ------------------------------------------------------------ converters *)

(* A registry policy spec, validated by base name at parse time so typos
   are usage errors listing the valid choices (parameter syntax after ':'
   is validated at construction time). *)
let policy_conv =
  let parse s =
    let base =
      match String.index_opt s ':' with
      | Some i -> String.sub s 0 i
      | None -> s
    in
    if base = "broken" || List.mem base Gc_cache.Registry.names then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf "unknown policy %S, expected one of: %s, broken" s
              (String.concat ", " Gc_cache.Registry.names)))
  in
  Arg.conv (parse, Format.pp_print_string)

(* An exact-choice string: cmdliner's enum reports bad values as usage
   errors listing every valid choice. *)
let choice_conv choices = Arg.enum (List.map (fun c -> (c, c)) choices)

let inject_conv =
  let parse s =
    match Gc_fault.Spec.parse s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  let pp fmt spec =
    Format.pp_print_string fmt (Gc_fault.Spec.spec_string spec)
  in
  Arg.conv (parse, pp)

(* ----------------------------------------------------- supervised sweeps *)

(* Flags shared by the checkpointed sweep commands (gcexp miss-curve,
   gcsim suite). *)

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Checkpoint completed sweep cells to $(docv) (JSONL, one \
           checksummed line per cell) so an interrupted run can be \
           continued with $(b,--resume).  Truncates any existing file.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"JOURNAL"
        ~doc:
          "Resume from a checkpoint journal written by $(b,--journal): \
           cells already recorded are not re-simulated, new completions \
           are appended to the same journal.  The journal must come from \
           an identical invocation.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-cell wall-clock budget.  A cell past its deadline is \
           cancelled (a wedged one abandoned) and recorded as a \
           $(b,timeout) error slot; the rest of the sweep continues.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:"Max cells simulated concurrently (default: cores - 1).")

(* [--journal] starts a fresh journal; [--resume] continues one.  Exactly
   one file can be in play. *)
let journal_mode ~journal ~resume =
  match (journal, resume) with
  | Some _, Some _ -> fail_usage "--journal and --resume are mutually exclusive"
  | None, Some path -> (Some path, true)
  | journal, None -> (journal, false)

let pool_config ?domains ?deadline () =
  let c = Gc_exec.Pool.default_config () in
  {
    c with
    Gc_exec.Pool.domains =
      (match domains with
      | Some d when d >= 1 -> d
      | Some d -> Printf.ksprintf invalid_arg "--domains must be >= 1, got %d" d
      | None -> c.Gc_exec.Pool.domains);
    deadline;
  }

(* ------------------------------------------------------------ evaluation *)

(* Commands are int terms returning one of the codes above; everything the
   command lets escape is mapped onto the same contract here. *)
let eval cmd =
  match Cmd.eval' ~catch:false cmd with
  | code when code = Cmd.Exit.cli_error -> usage_error
  | code when code = Cmd.Exit.internal_error -> runtime_error
  | code -> code
  | exception Fatal (code, msg) ->
      Printf.eprintf "%s\n%!" msg;
      code
  | exception Gc_cache.Simulator.Model_violation msg ->
      Printf.eprintf "model violation: %s\n%!" msg;
      model_violation
  | exception Invalid_argument msg ->
      (* Parameterized construction rejected the arguments
         (Registry.make and friends). *)
      Printf.eprintf "%s\n%!" msg;
      usage_error
  | exception Failure msg ->
      Printf.eprintf "%s\n%!" msg;
      runtime_error
  | exception Sys_error msg ->
      Printf.eprintf "%s\n%!" msg;
      runtime_error
