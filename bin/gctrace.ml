(* gctrace: generate, inspect, validate, and convert GC-caching traces.

   Examples:
     gctrace gen --kind spatial-mix --n 100000 --universe 8192 \
       --block-size 16 --p 0.7 --seed 1 -o trace.gct
     gctrace stats trace.gct
     gctrace validate trace.gctb
     gctrace validate --lenient damaged.gct
     gctrace locality trace.gct --steps 12

   Exit codes: 0 ok, 1 runtime failure (including an invalid trace),
   2 usage error. *)

open Cmdliner

let read_trace = Cli_common.read_trace
let write_trace = Cli_common.write_trace

(* ------------------------------------------------------------------ gen *)

let gen kind n universe block_size alpha p stride seed out =
  let rng = Gc_trace.Rng.create seed in
  let open Gc_trace.Generators in
  let trace =
    match kind with
    | "sequential" -> sequential ~n ~universe ~block_size
    | "strided" -> strided ~n ~stride ~universe ~block_size
    | "uniform" -> uniform_random rng ~n ~universe ~block_size
    | "zipf" -> zipf_items rng ~n ~universe ~block_size ~alpha
    | "zipf-blocks" ->
        zipf_blocks rng ~n
          ~blocks:(max 1 (universe / block_size))
          ~block_size ~alpha ~within:`Sequential
    | "spatial-mix" -> spatial_mix rng ~n ~universe ~block_size ~p_spatial:p
    | "pointer-chase" -> pointer_chase rng ~n ~universe ~block_size
    | "power-law" ->
        Gc_locality.Synthesis.power_law rng ~n ~p:2.0
          ~rho:
            (Float.min (float_of_int block_size) (p *. float_of_int block_size))
          ~block_size
    | _ ->
        (assert false [@lint.allow "exit-contract"])
        (* the enum converter rejects anything else *)
  in
  write_trace out trace;
  if out <> "-" then
    Format.eprintf "wrote %a to %s@." Gc_trace.Trace.pp trace out;
  Cli_common.ok

let kinds =
  [
    "sequential";
    "strided";
    "uniform";
    "zipf";
    "zipf-blocks";
    "spatial-mix";
    "pointer-chase";
    "power-law";
  ]

let kind_arg =
  let doc = Printf.sprintf "Workload kind: %s." (String.concat ", " kinds) in
  Arg.(
    value
    & opt (Cli_common.choice_conv kinds) "uniform"
    & info [ "kind" ] ~docv:"KIND" ~doc)

let n_arg =
  Arg.(value & opt int 100_000 & info [ "n"; "length" ] ~doc:"Trace length.")

let universe_arg =
  Arg.(value & opt int 8192 & info [ "universe" ] ~doc:"Number of items.")

let block_size_arg =
  Arg.(value & opt int 16 & info [ "block-size"; "B" ] ~doc:"Items per block.")

let alpha_arg =
  Arg.(value & opt float 1.0 & info [ "alpha" ] ~doc:"Zipf exponent.")

let p_arg =
  Arg.(
    value & opt float 0.5
    & info [ "p" ] ~doc:"Spatial-mix probability / power-law rho fraction.")

let stride_arg = Arg.(value & opt int 17 & info [ "stride" ] ~doc:"Stride.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let out_arg =
  Arg.(value & opt string "-" & info [ "o"; "output" ] ~doc:"Output path.")

let gen_cmd =
  Cmd.v
    (Cmd.info "gen" ~exits:Cli_common.exits ~doc:"Generate a synthetic trace")
    Term.(
      const gen $ kind_arg $ n_arg $ universe_arg $ block_size_arg $ alpha_arg
      $ p_arg $ stride_arg $ seed_arg $ out_arg)

(* ---------------------------------------------------------------- stats *)

let stats path =
  let t = read_trace path in
  Format.printf "%a@." Gc_trace.Trace.pp t;
  Format.printf "spatial ratio (whole trace): %.3f@."
    (Gc_trace.Stats.spatial_ratio t);
  let h = Gc_trace.Stats.stack_distances t in
  Format.printf "cold misses: %d@." h.Gc_trace.Stats.cold;
  let sizes = [ 64; 256; 1024; 4096 ] in
  List.iter
    (fun k ->
      Format.printf "LRU misses at k=%-5d: %d@." k
        (Gc_trace.Stats.lru_misses_at h k))
    sizes;
  Format.printf "mean same-block run length: %.2f@."
    (Gc_trace.Stats.mean_block_run_length t);
  let hb = Gc_trace.Stats.block_stack_distances t in
  List.iter
    (fun kb ->
      Format.printf "Block-LRU misses at %d blocks: %d@." kb
        (Gc_trace.Stats.lru_misses_at hb kb))
    [ 16; 64; 256 ];
  Cli_common.ok

let path_arg =
  Arg.(value & pos 0 string "-" & info [] ~docv:"TRACE" ~doc:"Trace file.")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~exits:Cli_common.exits
       ~doc:"Print trace statistics and Mattson miss curves")
    Term.(const stats $ path_arg)

(* ------------------------------------------------------------- validate *)

let validate lenient path =
  if lenient then begin
    if path = "-" then
      Cli_common.fail_usage "validate --lenient needs a file path, not stdin";
    match Gc_trace.Trace_io.load_lenient path with
    | Error e ->
        Printf.printf "%s: unrecoverable: %s\n" path
          (Gc_trace.Trace_io.string_of_error e);
        Cli_common.runtime_error
    | Ok r ->
        let t = r.Gc_trace.Trace_io.trace in
        Printf.printf "%s: recovered %d requests, dropped %d\n" path
          (Gc_trace.Trace.length t) r.Gc_trace.Trace_io.dropped;
        List.iter
          (fun e ->
            Printf.printf "  %s\n" (Gc_trace.Trace_io.string_of_error e))
          r.Gc_trace.Trace_io.diagnostics;
        if r.Gc_trace.Trace_io.dropped = 0
           && r.Gc_trace.Trace_io.diagnostics = []
        then Cli_common.ok
        else Cli_common.runtime_error
  end
  else
    let result =
      if path = "-" then Gc_trace.Trace_io.of_channel_result stdin
      else Gc_trace.Trace_io.load_any_result path
    in
    let display = if path = "-" then "stdin" else path in
    match result with
    | Ok t ->
        Printf.printf "%s: ok (%d requests, %d items, block size %d)\n" display
          (Gc_trace.Trace.length t)
          (Gc_trace.Trace.distinct_items t)
          (Gc_trace.Block_map.block_size t.Gc_trace.Trace.blocks);
        Cli_common.ok
    | Error e ->
        Printf.printf "%s: invalid: %s\n" display
          (Gc_trace.Trace_io.string_of_error e);
        Cli_common.runtime_error

let lenient_arg =
  Arg.(
    value & flag
    & info [ "lenient" ]
        ~doc:
          "Recovery mode: skip malformed records, report what was dropped.  \
           Exits 0 only if nothing was dropped.")

let validate_cmd =
  Cmd.v
    (Cmd.info "validate" ~exits:Cli_common.exits
       ~doc:
         "Check a trace file (text or .gctb binary, including its checksum \
          footer); exits 0 iff the file is fully valid")
    Term.(const validate $ lenient_arg $ path_arg)

(* ------------------------------------------------------------- locality *)

let locality path steps =
  let t = read_trace path in
  let windows =
    List.filter
      (fun n -> n >= 4)
      (Gc_locality.Working_set.geometric_windows t ~steps)
  in
  Format.printf "%10s %10s %10s %8s@." "n" "f(n)" "g(n)" "f/g";
  let profile = Gc_locality.Working_set.profile t ~windows in
  List.iter
    (fun (n, f, g) ->
      Format.printf "%10d %10d %10d %8.2f@." n f g
        (float_of_int f /. float_of_int (max 1 g)))
    profile;
  (match
     Gc_locality.Concave_fit.fit_power
       (List.map (fun (n, f, _) -> (n, f)) profile)
   with
  | fit ->
      Format.printf "fit: f(n) ~ %.2f n^(1/%.2f) (rmse %.3f)@."
        fit.Gc_locality.Concave_fit.coeff fit.Gc_locality.Concave_fit.p
        fit.Gc_locality.Concave_fit.rmse
  | exception Invalid_argument _ -> ());
  Cli_common.ok

let steps_arg =
  Arg.(value & opt int 12 & info [ "steps" ] ~doc:"Window grid resolution.")

let locality_cmd =
  Cmd.v
    (Cmd.info "locality" ~exits:Cli_common.exits
       ~doc:"Measure f(n)/g(n) locality profile")
    Term.(const locality $ path_arg $ steps_arg)

let () =
  let info =
    Cmd.info "gctrace" ~doc:"GC-caching trace toolkit" ~exits:Cli_common.exits
  in
  exit
    (Cli_common.eval
       (Cmd.group info [ gen_cmd; stats_cmd; validate_cmd; locality_cmd ]))
