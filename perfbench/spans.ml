(* Span analysis for the traced run: the benchmark's own Gc_prof spans
   (pid 1) and the spans `gcserved serve --trace` writes at drain (pid 2)
   are merged into one Chrome trace-event file, and each layer's self
   time is its span's duration minus the part its child spans cover. *)

module J = Gc_obs.Json

type sp = { pid : int; tid : int; name : string; ts : int; dur : int; id : string option }

let stop s = s.ts + s.dur
let contains p c = p.ts <= c.ts && stop c <= stop p

let of_tracer (s : Gc_prof.Tracer.span) =
  {
    pid = 1;
    tid = s.tid;
    name = s.name;
    ts = s.ts_ns;
    dur = s.dur_ns;
    id = List.assoc_opt "id" s.args;
  }

let ns_of_us = function
  | Some (J.Float us) -> Some (int_of_float (Float.round (us *. 1000.)))
  | Some (J.Int us) -> Some (us * 1000)
  | _ -> None

let of_chrome_event ev =
  match
    ( Util.member_string [ "name" ] ev,
      Util.member_int [ "tid" ] ev,
      ns_of_us (J.member "ts" ev),
      ns_of_us (J.member "dur" ev) )
  with
  | Some name, Some tid, Some ts, Some dur ->
      Some { pid = 2; tid; name; ts; dur; id = Util.member_string [ "args"; "id" ] ev }
  | _ -> None

(* The server's Chrome file: its events, re-homed to pid 2. *)
let read_server_trace path =
  match J.parse (Util.read_file path) with
  | Ok doc -> (
      match J.member "traceEvents" doc with
      | Some (J.Array evs) ->
          List.map
            (function
              | J.Obj fields ->
                  J.Obj (List.map (fun (k, v) -> if k = "pid" then (k, J.Int 2) else (k, v)) fields)
              | other -> other)
            evs
      | _ -> failwith (path ^ ": no traceEvents"))
  | Error e -> failwith (path ^ ": " ^ J.string_of_parse_error e)

let write_merged path ~mine ~server =
  let doc =
    match Gc_prof.Chrome.to_json mine with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "traceEvents", J.Array evs -> ("traceEvents", J.Array (evs @ server))
               | kv -> kv)
             fields)
    | other -> other
  in
  Gc_obs.Export.write_json_atomic path doc

(* ------------------------------------------------------------ self time *)

(* Waits are emitted after the fact and overlap the work they waited
   behind; they are never parents or children. *)
let is_wait s = s.name = "queue-wait" || s.name = "pool.queued"

(* In the server, worker sys-threads and pool domains share one id space
   for tracks, so nesting there follows the known call chain; with one
   worker only one chain is live at a time. *)
let server_parent = function
  | "pool.task" -> Some "execute"
  | "pool.attempt" -> Some "pool.task"
  | "run_policy" -> Some "pool.attempt"
  | "sim.chunk" -> Some "run_policy"
  | _ -> None

(* Children's total duration per span, by physical index. *)
let child_time spans =
  let a = Array.of_list spans in
  let covered = Array.make (Array.length a) 0 in
  (* Benchmark side: nesting on each track. *)
  let by_track = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      if s.pid = 1 && not (is_wait s) then
        Hashtbl.replace by_track s.tid (i :: Option.value (Hashtbl.find_opt by_track s.tid) ~default:[]))
    a;
  Hashtbl.iter
    (fun _ idx ->
      let idx =
        List.sort
          (fun i j -> compare (a.(i).ts, - a.(i).dur) (a.(j).ts, - a.(j).dur))
          idx
      in
      let stack = ref [] in
      List.iter
        (fun i ->
          let rec unwind = function
            | p :: rest when not (contains a.(p) a.(i)) -> unwind rest
            | st -> st
          in
          stack := unwind !stack;
          (match !stack with
          | p :: _ -> covered.(p) <- covered.(p) + a.(i).dur
          | [] -> ());
          stack := i :: !stack)
        idx)
    by_track;
  (* Server side: along the call chain. *)
  let named n = List.filter (fun i -> a.(i).pid = 2 && a.(i).name = n) (List.init (Array.length a) Fun.id) in
  List.iter
    (fun child ->
      match server_parent child with
      | None -> ()
      | Some parent ->
          let parents = named parent in
          List.iter
            (fun c ->
              match List.find_opt (fun p -> contains a.(p) a.(c)) parents with
              | Some p -> covered.(p) <- covered.(p) + a.(c).dur
              | None -> ())
            (named child))
    [ "pool.task"; "pool.attempt"; "run_policy"; "sim.chunk" ];
  (a, covered)

(* One row per (process, span name): count, median and total self time. *)
let print_self_times spans =
  let a, covered = child_time spans in
  let groups = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let key = (s.pid, s.name) in
      let self = float_of_int (s.dur - covered.(i)) in
      Hashtbl.replace groups key (self :: Option.value (Hashtbl.find_opt groups key) ~default:[]))
    a;
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups []
    |> List.sort (fun (_, x) (_, y) -> compare (Util.sum y) (Util.sum x))
  in
  Printf.printf "self time by span (pid 1 = benchmark, pid 2 = gcserved):\n";
  Printf.printf "  %-4s %-34s %8s %14s %14s\n" "pid" "span" "count" "median_us" "total_ms";
  List.iter
    (fun ((pid, name), selfs) ->
      Printf.printf "  %-4d %-34s %8d %14.1f %14.2f\n" pid name (List.length selfs)
        (Util.median selfs /. 1e3) (Util.sum selfs /. 1e6))
    rows

(* ----------------------------------------------------- server requests *)

let stage_names = [ "decode"; "queue_wait"; "execute"; "pool_task"; "run_policy"; "encode"; "reply" ]

(* Per simulation request (one with an execute span), the self time of
   each server stage in microseconds; run_policy sums a miss-curve's
   per-k runs and includes the simulator chunks under them. *)
let request_stages spans =
  let server = List.filter (fun s -> s.pid = 2) spans in
  let by_id = Hashtbl.create 256 in
  List.iter
    (fun s -> Option.iter (fun id -> Hashtbl.replace by_id (s.name, id) s) s.id)
    server;
  let named n = List.filter (fun s -> s.name = n) server in
  let tasks = named "pool.task" and runs = named "run_policy" in
  List.filter_map
    (fun e ->
      match e.id with
      | None -> None
      | Some id -> (
          let find n = Hashtbl.find_opt by_id (n, id) in
          match (find "decode", find "queue-wait", find "encode", find "reply") with
          | Some d, Some q, Some en, Some r ->
              let ts = List.filter (contains e) tasks in
              let rs = List.filter (fun r -> List.exists (fun t -> contains t r) ts) runs in
              let total l = List.fold_left (fun acc s -> acc + s.dur) 0 l in
              let us ns = float_of_int ns /. 1e3 in
              Some
                [
                  us d.dur;
                  us q.dur;
                  us (e.dur - total ts);
                  us (total ts - total rs);
                  us (total rs);
                  us en.dur;
                  us r.dur;
                ]
          | _ -> None))
    (named "execute")

(* Median per stage, in [stage_names] order, and the request count. *)
let stage_medians spans =
  let rows = request_stages spans in
  let col i = List.map (fun r -> List.nth r i) rows in
  (List.mapi (fun i name -> (name, Util.median (col i))) stage_names, List.length rows)
