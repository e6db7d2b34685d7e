(* ------------------------------------------------ Prometheus exposition *)

(* Prometheus text exposition format (version 0.0.4): one "# TYPE" header
   per metric name with every sample of that name grouped under it.
   Histograms render in the native histogram convention — cumulative
   [_bucket] samples with an [le] label on the bucket's inclusive upper
   edge, plus [_sum] and [_count].  Quantiles are left to the scraper
   (that is what the bucket samples are for). *)

type prom_metric =
  | Prom_value of string * int  (* "counter" | "gauge" *)
  | Prom_hist of { hcount : int; hsum : int; hbuckets : (int * int) list }
      (* (hi_edge, count) ascending *)

type prom_row = {
  p_name : string;
  p_labels : (string * string) list;
  p_metric : prom_metric;
}

let prom_name s =
  let ok_first c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  in
  let ok c = ok_first c || (c >= '0' && c <= '9') in
  let b = Bytes.of_string s in
  Bytes.iteri
    (fun i c ->
      let valid = if i = 0 then ok_first c else ok c in
      if not valid then Bytes.set b i '_')
    b;
  if s = "" then "_" else Bytes.to_string b

let prom_label_value v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | labels ->
      let pair (k, v) =
        Printf.sprintf "%s=\"%s\"" (prom_name k) (prom_label_value v)
      in
      "{" ^ String.concat "," (List.map pair labels) ^ "}"

let render_prometheus rows =
  let buf = Buffer.create 1024 in
  let names =
    (* First-occurrence order, every row of one name grouped together. *)
    List.fold_left
      (fun acc row ->
        if List.mem row.p_name acc then acc else row.p_name :: acc)
      [] rows
    |> List.rev
  in
  List.iter
    (fun name ->
      let group = List.filter (fun r -> r.p_name = name) rows in
      let pname = prom_name name in
      let typ =
        match group with
        | { p_metric = Prom_value (t, _); _ } :: _ -> t
        | _ -> "histogram"
      in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" pname typ);
      List.iter
        (fun r ->
          match r.p_metric with
          | Prom_value (_, v) ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %d\n" pname (prom_labels r.p_labels) v)
          | Prom_hist { hcount; hsum; hbuckets } ->
              let cum = ref 0 in
              List.iter
                (fun (hi, n) ->
                  cum := !cum + n;
                  let labels = r.p_labels @ [ ("le", string_of_int hi) ] in
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" pname
                       (prom_labels labels) !cum))
                hbuckets;
              let inf = r.p_labels @ [ ("le", "+Inf") ] in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" pname (prom_labels inf)
                   hcount);
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %d\n" pname (prom_labels r.p_labels)
                   hsum);
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %d\n" pname
                   (prom_labels r.p_labels) hcount))
        group)
    names;
  Buffer.contents buf

(* The text from a [Registry.to_json] snapshot, the wire form served by
   [gcserved]'s stats op (e.g. [gcserved client stats --prom]). *)
let prometheus_of_json json =
  let ( let* ) = Result.bind in
  let str = function Json.String s -> Ok s | _ -> Error "expected a string" in
  let int = function Json.Int n -> Ok n | _ -> Error "expected an int" in
  let field name row =
    match Json.member name row with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "metric row lacks %S" name)
  in
  let parse_row row =
    let* name = Result.bind (field "name" row) str in
    let* labels =
      match Json.member "labels" row with
      | None | Some (Json.Obj []) -> Ok []
      | Some (Json.Obj kvs) ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | (k, Json.String v) :: rest -> go ((k, v) :: acc) rest
            | (k, _) :: _ -> Error (Printf.sprintf "label %S: expected a string" k)
          in
          go [] kvs
      | Some _ -> Error "labels: expected an object"
    in
    let* typ = Result.bind (field "type" row) str in
    let* p_metric =
      match typ with
      | "counter" | "gauge" ->
          let* v = Result.bind (field "value" row) int in
          Ok (Prom_value (typ, v))
      | "histogram" ->
          let* hcount = Result.bind (field "count" row) int in
          let* hsum = Result.bind (field "sum" row) int in
          let* hbuckets =
            match Json.member "buckets" row with
            | Some (Json.Array bs) ->
                let rec go acc = function
                  | [] -> Ok (List.rev acc)
                  | b :: rest ->
                      let* hi = Result.bind (field "hi" b) int in
                      let* n = Result.bind (field "count" b) int in
                      go ((hi, n) :: acc) rest
                in
                go [] bs
            | _ -> Error "histogram row lacks buckets"
          in
          Ok (Prom_hist { hcount; hsum; hbuckets })
      | t -> Error (Printf.sprintf "unknown metric type %S" t)
    in
    Ok { p_name = name; p_labels = labels; p_metric }
  in
  match json with
  | Json.Array rows ->
      let rec go acc = function
        | [] -> Ok (render_prometheus (List.rev acc))
        | row :: rest -> (
            match parse_row row with
            | Ok r -> go (r :: acc) rest
            | Error _ as e -> e)
      in
      go [] rows
  | _ -> Error "metrics snapshot: expected an array of metric rows"

(* A per-process counter makes the temp name unique even when two threads
   of one process write the same artifact concurrently; the pid covers
   concurrent processes.  A fixed ".tmp" suffix would let two writers
   clobber each other's temp file and rename a half-written one into
   place. *)
let tmp_seq = Atomic.make 0

(* Chaos-drill fault hook (gcchaos): when armed, the next atomic write
   completes the temp file (write, flush, fsync) and then raises
   [Crashed_before_rename] instead of renaming — the window a real crash
   would hit.  One-shot, off everywhere outside a drill.  The invariant
   it exists to prove: the final name is either absent or still the old
   content, never a truncated in-between. *)
exception Crashed_before_rename

let crash_before_rename = ref false

let write_string_atomic path s =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  (match
     let oc = open_out tmp in
     match
       output_string oc s;
       (* "Atomic" must also mean durable: without the fsync the rename
          can hit the disk before the data, and a power cut leaves the
          final name pointing at a truncated file. *)
       flush oc;
       Unix.fsync (Unix.descr_of_out_channel oc);
       close_out oc
     with
     | () -> ()
     | exception e ->
         close_out_noerr oc;
         raise e
   with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  if !crash_before_rename then begin
    crash_before_rename := false;
    raise Crashed_before_rename
  end;
  (try Sys.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* Persist the rename itself (the directory entry).  Best-effort: some
     platforms refuse to open or fsync directories. *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

(* The plain (non-atomic) write_string/write_json variants are gone on
   purpose: every artifact writer goes through the atomic path so a crash
   or full disk can never leave a truncated file under a final name. *)
let write_string = write_string_atomic

let write_json_atomic path json =
  write_string_atomic path (Format.asprintf "%a@." Json.pp json)

let write_json = write_json_atomic
