(* Clocks, order statistics, the metric and check records, /proc
   readings and JSON access shared by the workloads. *)

module Json = Gc_obs.Json

let now_ns = Gc_prof.Clock.now_ns

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Wall time and minor words allocated by [f ()]. *)
let measured f =
  let w0 = Gc.minor_words () in
  let r, ns = timed f in
  (r, ns, Gc.minor_words () -. w0)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* A tail percentile is reported only with at least ten samples beyond
   it. *)
let tail_supported ~q n = float_of_int n *. (1. -. q) >= 10.

let sum = List.fold_left ( +. ) 0.

(* -------------------------------------------------------------- results *)

type metric = { name : string; unit_ : string; value : float; note : string }

let metric ?(note = "") name unit_ value = { name; unit_; value; note }

(* Correctness bookkeeping.  An operation (one policy run, one request)
   is one attempt and fails if any check made while it is current fails;
   a run-level check (pinned digests, server accounting, trace
   reconciliation) is an attempt of its own. *)
type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable messages : string list;
  mutable op_failed : bool;
}

let new_checks () = { attempted = 0; failed = 0; messages = []; op_failed = false }

let check c ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        c.op_failed <- true;
        c.messages <- msg :: c.messages;
        Printf.printf "CHECK FAILED: %s\n%!" msg
      end)
    fmt

let op c f =
  c.op_failed <- false;
  f ();
  c.attempted <- c.attempted + 1;
  if c.op_failed then c.failed <- c.failed + 1;
  c.op_failed <- false

let run_check c ok fmt = Printf.ksprintf (fun msg -> op c (fun () -> check c ok "%s" msg)) fmt

(* ---------------------------------------------------------------- /proc *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The value after ["name:"] on the first line starting with [name], as
   in /proc/<pid>/status and /proc/cpuinfo. *)
let field name text =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:name l then
           Option.map
             (fun i -> String.trim (String.sub l (i + 1) (String.length l - i - 1)))
             (String.index_opt l ':')
         else None)

(* Peak resident set (VmHWM, "<n> kB") in MiB. *)
let peak_rss_mb ~pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  match Option.map (String.split_on_char ' ') (field "VmHWM" status) with
  | Some (kib :: _) -> float_of_string kib /. 1024.
  | _ -> failwith ("no VmHWM for process " ^ pid)

let out_dir = "perfbench/_out"

let out_path name = Filename.concat out_dir name

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* ------------------------------------------------------------ json read *)

let member path json =
  List.fold_left
    (fun acc key -> Option.bind acc (Json.member key))
    (Some json) path

let member_int path json =
  match member path json with Some (Json.Int i) -> Some i | _ -> None

let member_float path json =
  match member path json with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

let member_string path json =
  match member path json with Some (Json.String s) -> Some s | _ -> None
