(* ------------------------------------------------------------ diagnostics *)

type position = Line of int | Byte of int | Io

type error = { position : position; reason : string }

let string_of_error e =
  match e.position with
  | Line l -> Printf.sprintf "line %d: %s" l e.reason
  | Byte b -> Printf.sprintf "byte %d: %s" b e.reason
  | Io -> e.reason

exception Parse_error of error

let perr position fmt =
  Printf.ksprintf (fun reason -> raise (Parse_error { position; reason })) fmt

(* Lenient decoding accumulates per-record problems instead of failing. *)
type recovery = { trace : Trace.t; dropped : int; diagnostics : error list }

let max_diagnostics = 20

type sink = {
  mutable dropped : int;
  mutable ndiags : int;
  mutable diags : error list; (* reversed; capped at [max_diagnostics] *)
}

let new_sink () = { dropped = 0; ndiags = 0; diags = [] }

let note sink position fmt =
  Printf.ksprintf
    (fun reason ->
      if sink.ndiags < max_diagnostics then
        sink.diags <- { position; reason } :: sink.diags;
      sink.ndiags <- sink.ndiags + 1)
    fmt

let diagnostics sink = List.rev sink.diags

(* Growable int buffer: decoded requests are never preallocated from an
   untrusted length field, so a header claiming 2^60 requests allocates in
   proportion to the bytes actually present, not the claim. *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 64 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.data 0 v.len
end

(* -------------------------------------------------------------- encoding *)

(* An explicit map is written as the blocks the trace references, each as
   its items, in order of first reference. *)
let referenced_blocks (t : Trace.t) =
  let blocks = t.Trace.blocks in
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  Trace.iter
    (fun r ->
      let b = Block_map.block_of blocks r in
      if not (Hashtbl.mem seen b) then begin
        Hashtbl.add seen b ();
        order := Block_map.items_of blocks b :: !order
      end)
    t;
  List.rev !order

let to_buffer buf (t : Trace.t) =
  Buffer.add_string buf "gctrace 1\n";
  let blocks = t.Trace.blocks in
  if Block_map.is_uniform blocks then
    Buffer.add_string buf
      (Printf.sprintf "blocks uniform %d\n" (Block_map.block_size blocks))
  else begin
    let listed = referenced_blocks t in
    Buffer.add_string buf
      (Printf.sprintf "blocks explicit %d %d\n"
         (Block_map.block_size blocks)
         (List.length listed));
    List.iter
      (fun items ->
        Array.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ' ';
            Buffer.add_string buf (string_of_int item))
          items;
        Buffer.add_char buf '\n')
      listed
  end;
  Buffer.add_string buf (Printf.sprintf "requests %d\n" (Trace.length t));
  Trace.iteri
    (fun i r ->
      if i > 0 then
        Buffer.add_char buf (if i mod 16 = 0 then '\n' else ' ');
      Buffer.add_string buf (string_of_int r))
    t;
  if Trace.length t > 0 then Buffer.add_char buf '\n'

let to_string t =
  let buf = Buffer.create 4096 in
  to_buffer buf t;
  Buffer.contents buf

let to_channel oc t = output_string oc (to_string t)

(* gc_trace sits below gc_obs in the dependency order, so the Export
   atomic-write path is out of reach; loaders reject malformed text, so a
   truncated save is detected rather than silently used. *)
let save path t =
  (Out_channel.with_open_text [@lint.allow "raw-artifact-write"]) path
    (fun oc -> to_channel oc t)

(* ------------------------------------------------- streaming text cursor *)

(* Characters are pulled through a fixed-size buffer so channel decoding is
   bounded-memory; a string source is just a pre-filled buffer that never
   refills. *)
type cursor = {
  refill : bytes -> int;
  cbuf : Bytes.t;
  mutable clo : int;
  mutable chi : int;
  mutable line : int;
  mutable ceof : bool;
}

let cursor_of_string s =
  {
    refill = (fun _ -> 0);
    cbuf = Bytes.of_string s;
    clo = 0;
    chi = String.length s;
    line = 1;
    ceof = false;
  }

let cursor_of_channel ic =
  let cbuf = Bytes.create 65536 in
  {
    refill = (fun b -> input ic b 0 (Bytes.length b));
    cbuf;
    clo = 0;
    chi = 0;
    line = 1;
    ceof = false;
  }

let peek_char c =
  if c.clo < c.chi then Some (Bytes.unsafe_get c.cbuf c.clo)
  else if c.ceof then None
  else begin
    let n = c.refill c.cbuf in
    if n = 0 then begin
      c.ceof <- true;
      None
    end
    else begin
      c.clo <- 0;
      c.chi <- n;
      Some (Bytes.unsafe_get c.cbuf 0)
    end
  end

let skip_char c ch =
  c.clo <- c.clo + 1;
  if ch = '\n' then c.line <- c.line + 1

let is_space = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

let rec skip_ws c =
  match peek_char c with
  | Some ch when is_space ch ->
      skip_char c ch;
      skip_ws c
  | _ -> ()

let read_token_chars c buf =
  let rec go () =
    match peek_char c with
    | Some ch when not (is_space ch) ->
        Buffer.add_char buf ch;
        skip_char c ch;
        go ()
    | _ -> ()
  in
  go ()

(* Any-whitespace token; returns the line the token starts on. *)
let next_token c =
  skip_ws c;
  match peek_char c with
  | None -> None
  | Some _ ->
      let line = c.line in
      let buf = Buffer.create 16 in
      read_token_chars c buf;
      Some (line, Buffer.contents buf)

(* Token bounded by the current line; consumes the terminating newline. *)
let next_token_on_line c =
  let rec skip_sp () =
    match peek_char c with
    | Some ((' ' | '\t' | '\r') as ch) ->
        skip_char c ch;
        skip_sp ()
    | _ -> ()
  in
  skip_sp ();
  match peek_char c with
  | None -> None
  | Some '\n' ->
      skip_char c '\n';
      None
  | Some _ ->
      let buf = Buffer.create 16 in
      read_token_chars c buf;
      Some (Buffer.contents buf)

(* ----------------------------------------------------- strict text parse *)

let expect c what =
  match next_token c with
  | Some (_, tok) when tok = what -> ()
  | Some (line, tok) -> perr (Line line) "expected %S, got %S" what tok
  | None -> perr (Line c.line) "expected %S, got end of input" what

let next_int c what =
  match next_token c with
  | Some (line, tok) -> (
      match int_of_string_opt tok with
      | Some v -> (line, v)
      | None -> perr (Line line) "expected %s, got %S" what tok)
  | None -> perr (Line c.line) "expected %s, got end of input" what

(* One block of an explicit map: the items on the next non-blank line.
   [lenient] drops unparsable or duplicated items instead of failing. *)
let read_block_line ~lenient sink seen c =
  skip_ws c;
  let line = c.line in
  let at_eof = peek_char c = None in
  let items = ref [] in
  let rec go () =
    match next_token_on_line c with
    | None -> ()
    | Some tok ->
        (match int_of_string_opt tok with
        | None ->
            if lenient then note sink (Line line) "bad block item %S" tok
            else perr (Line line) "bad block item %S" tok
        | Some v ->
            if Hashtbl.mem seen v then
              if lenient then
                note sink (Line line) "item %d listed in two blocks" v
              else perr (Line line) "item %d listed in two blocks" v
            else begin
              Hashtbl.add seen v ();
              items := v :: !items
            end);
        go ()
  in
  go ();
  (line, at_eof, Array.of_list (List.rev !items))

let parse_text ~lenient c =
  let sink = new_sink () in
  expect c "gctrace";
  let vline, version = next_int c "version" in
  if version <> 1 then perr (Line vline) "unsupported version %d" version;
  expect c "blocks";
  let blocks =
    match next_token c with
    | Some (_, "uniform") ->
        let bline, b = next_int c "block size" in
        if b < 1 then perr (Line bline) "block size must be positive, got %d" b;
        Block_map.uniform ~block_size:b
    | Some (_, "explicit") ->
        let bline, b = next_int c "block size" in
        if b < 1 then perr (Line bline) "block size must be positive, got %d" b;
        let nline, nblocks = next_int c "block count" in
        if nblocks < 0 then perr (Line nline) "negative block count %d" nblocks;
        let seen = Hashtbl.create 64 in
        let bs = ref [] in
        (try
           for _ = 1 to nblocks do
             let line, at_eof, items = read_block_line ~lenient sink seen c in
             if Array.length items = 0 then
               if at_eof then
                 if lenient then begin
                   note sink (Line line) "truncated block list";
                   raise Exit
                 end
                 else perr (Line line) "truncated block list"
               else if lenient then note sink (Line line) "empty block dropped"
               else perr (Line line) "empty block"
             else bs := items :: !bs
           done
         with Exit -> ());
        Block_map.of_blocks (List.rev !bs)
    | Some (line, tok) -> perr (Line line) "unknown block map kind %S" tok
    | None -> perr (Line c.line) "truncated header"
  in
  expect c "requests";
  let nline, n = next_int c "request count" in
  if n < 0 then perr (Line nline) "negative request count %d" n;
  let vec = Ivec.create () in
  if lenient then begin
    (* Keep every parseable non-negative request; report the rest. *)
    let rec go () =
      match next_token c with
      | None -> ()
      | Some (line, tok) ->
          (match int_of_string_opt tok with
          | Some v when v >= 0 -> Ivec.push vec v
          | Some v ->
              sink.dropped <- sink.dropped + 1;
              note sink (Line line) "negative item id %d dropped" v
          | None ->
              sink.dropped <- sink.dropped + 1;
              note sink (Line line) "bad request %S dropped" tok);
          go ()
    in
    go ();
    (* Anything declared but neither recovered nor counted as a bad token
       was lost to truncation. *)
    let missing = n - vec.Ivec.len - sink.dropped in
    if missing > 0 then begin
      sink.dropped <- sink.dropped + missing;
      note sink (Line c.line) "%d of %d declared requests missing" missing n
    end
    else if vec.Ivec.len > n then
      note sink (Line c.line) "%d requests beyond the declared %d kept"
        (vec.Ivec.len - n) n
  end
  else begin
    for _ = 1 to n do
      match next_token c with
      | None ->
          perr (Line c.line) "expected %d requests, found %d" n vec.Ivec.len
      | Some (line, tok) -> (
          match int_of_string_opt tok with
          | Some v when v >= 0 -> Ivec.push vec v
          | Some v -> perr (Line line) "negative item id %d" v
          | None -> perr (Line line) "expected integer, got %S" tok)
    done;
    match next_token c with
    | Some (line, tok) ->
        perr (Line line) "trailing garbage %S after %d requests" tok n
    | None -> ()
  end;
  let trace = Trace.make blocks (Ivec.to_array vec) in
  { trace; dropped = sink.dropped; diagnostics = diagnostics sink }

(* --------------------------------------------------------- binary format *)

let magic = "GCTB"

let add_varint buf v =
  (* Unsigned LEB128. *)
  let v = ref v in
  let continue = ref true in
  while !continue do
    let low = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr low);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (low lor 0x80))
  done

let zigzag v = if v >= 0 then v lsl 1 else ((-v) lsl 1) - 1

let unzigzag v = if v land 1 = 0 then v lsr 1 else -((v + 1) lsr 1)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L
let fnv_add h byte = Int64.mul (Int64.logxor h (Int64.of_int byte)) fnv_prime

let to_bytes (t : Trace.t) =
  let buf = Buffer.create (Trace.length t * 2) in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\002' (* version: 2 = checksummed *);
  let blocks = t.Trace.blocks in
  if Block_map.is_uniform blocks then begin
    Buffer.add_char buf '\000';
    add_varint buf (Block_map.block_size blocks)
  end
  else begin
    Buffer.add_char buf '\001';
    add_varint buf (Block_map.block_size blocks);
    let listed = referenced_blocks t in
    add_varint buf (List.length listed);
    List.iter
      (fun items ->
        add_varint buf (Array.length items);
        Array.iter (add_varint buf) items)
      listed
  end;
  add_varint buf (Trace.length t);
  let prev = ref 0 in
  Trace.iter
    (fun r ->
      add_varint buf (zigzag (r - !prev));
      prev := r)
    t;
  (* FNV-1a64 footer over everything above, little-endian. *)
  let payload = Buffer.to_bytes buf in
  let len = Bytes.length payload in
  let h = ref fnv_offset in
  Bytes.iter (fun ch -> h := fnv_add !h (Char.code ch)) payload;
  let out = Bytes.create (len + 8) in
  Bytes.blit payload 0 out 0 len;
  for i = 0 to 7 do
    Bytes.set out (len + i)
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical !h (8 * i)) 0xFFL)))
  done;
  out

(* ---------------------------------------------- streaming binary cursor *)

type bcursor = {
  brefill : bytes -> int;
  bbuf : Bytes.t;
  mutable blo : int;
  mutable bhi : int;
  mutable consumed : int;
  mutable hash : int64;
  mutable beof : bool;
}

let bcursor_of_bytes b =
  {
    brefill = (fun _ -> 0);
    bbuf = b;
    blo = 0;
    bhi = Bytes.length b;
    consumed = 0;
    hash = fnv_offset;
    beof = false;
  }

let bcursor_of_channel ic =
  let bbuf = Bytes.create 65536 in
  {
    brefill = (fun b -> input ic b 0 (Bytes.length b));
    bbuf;
    blo = 0;
    bhi = 0;
    consumed = 0;
    hash = fnv_offset;
    beof = false;
  }

let read_byte_opt c =
  if c.blo >= c.bhi && not c.beof then begin
    let n = c.brefill c.bbuf in
    if n = 0 then c.beof <- true
    else begin
      c.blo <- 0;
      c.bhi <- n
    end
  end;
  if c.blo >= c.bhi then None
  else begin
    let b = Char.code (Bytes.unsafe_get c.bbuf c.blo) in
    c.blo <- c.blo + 1;
    c.consumed <- c.consumed + 1;
    c.hash <- fnv_add c.hash b;
    Some b
  end

let read_byte c what =
  match read_byte_opt c with
  | Some b -> b
  | None -> perr (Byte c.consumed) "truncated %s" what

let read_varint c what =
  let rec go shift acc =
    let b = read_byte c what in
    if shift > 62 then perr (Byte (c.consumed - 1)) "varint overflow in %s" what;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if acc < 0 then perr (Byte (c.consumed - 1)) "varint overflow in %s" what;
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let parse_binary ~lenient c =
  let sink = new_sink () in
  String.iteri
    (fun i expected ->
      let b = read_byte c "magic" in
      if Char.chr b <> expected then perr (Byte i) "bad magic")
    magic;
  let version = read_byte c "version" in
  if version <> 1 && version <> 2 then
    perr (Byte (c.consumed - 1)) "unsupported version %d" version;
  let blocks =
    match read_byte c "block map kind" with
    | 0 ->
        let b = read_varint c "block size" in
        if b < 1 then
          perr (Byte c.consumed) "block size must be positive, got %d" b;
        Block_map.uniform ~block_size:b
    | 1 ->
        let b = read_varint c "block size" in
        if b < 1 then
          perr (Byte c.consumed) "block size must be positive, got %d" b;
        let nblocks = read_varint c "block count" in
        let seen = Hashtbl.create 64 in
        let bs = ref [] in
        for _ = 1 to nblocks do
          let count = read_varint c "block item count" in
          if count = 0 then perr (Byte c.consumed) "empty block";
          let items = Ivec.create () in
          for _ = 1 to count do
            let item = read_varint c "block item" in
            if Hashtbl.mem seen item then
              perr (Byte c.consumed) "item %d listed in two blocks" item;
            Hashtbl.add seen item ();
            Ivec.push items item
          done;
          bs := Ivec.to_array items :: !bs
        done;
        Block_map.of_blocks (List.rev !bs)
    | k -> perr (Byte (c.consumed - 1)) "unknown block kind %d" k
  in
  let n = read_varint c "request count" in
  let vec = Ivec.create () in
  let prev = ref 0 in
  let intact = ref true in
  (try
     for _ = 1 to n do
       let raw = read_varint c "request" in
       let v = !prev + unzigzag raw in
       if v < 0 then perr (Byte c.consumed) "negative request id %d" v;
       Ivec.push vec v;
       prev := v
     done
   with Parse_error e when lenient ->
     intact := false;
     sink.dropped <- sink.dropped + (n - vec.Ivec.len);
     note sink e.position "%s (%d of %d requests recovered)" e.reason
       vec.Ivec.len n);
  (* Checksum footer (version 2): FNV-1a64 of every byte before it.  A
     lenient read that already lost its tail skips verification — the
     stream position is meaningless past the first bad byte. *)
  if version = 2 && !intact then begin
    let computed = c.hash in
    let footer_at = c.consumed in
    match
      let stored = ref 0L in
      for i = 0 to 7 do
        let b = read_byte c "checksum" in
        stored := Int64.logor !stored (Int64.shift_left (Int64.of_int b) (8 * i))
      done;
      !stored
    with
    | stored when stored <> computed ->
        if lenient then
          note sink (Byte footer_at)
            "checksum mismatch (stored %016Lx, computed %016Lx)" stored
            computed
        else
          perr (Byte footer_at)
            "checksum mismatch (stored %016Lx, computed %016Lx)" stored
            computed
    | _ -> ()
    | exception Parse_error e when lenient -> note sink e.position "%s" e.reason
  end;
  if !intact then begin
    match read_byte_opt c with
    | Some _ ->
        if lenient then
          note sink (Byte (c.consumed - 1)) "trailing garbage after trace"
        else perr (Byte (c.consumed - 1)) "trailing garbage after trace"
    | None -> ()
  end;
  let trace = Trace.make blocks (Ivec.to_array vec) in
  { trace; dropped = sink.dropped; diagnostics = diagnostics sink }

(* -------------------------------------------------------------- text API *)

let strict f x =
  match f x with
  | r -> Ok r.trace
  | exception Parse_error e -> Error e

let lenient_ f x =
  match f x with r -> Ok r | exception Parse_error e -> Error e

let of_string_result s = strict (parse_text ~lenient:false) (cursor_of_string s)

let of_channel_result ic =
  strict (parse_text ~lenient:false) (cursor_of_channel ic)

let of_string_lenient s =
  lenient_ (parse_text ~lenient:true) (cursor_of_string s)

let io_guard f =
  try f () with Sys_error reason -> Error { position = Io; reason }

let load_result path =
  io_guard (fun () -> In_channel.with_open_text path of_channel_result)

(* ------------------------------------------------------------ binary API *)

let of_bytes_result b = strict (parse_binary ~lenient:false) (bcursor_of_bytes b)

let of_bytes_lenient b =
  lenient_ (parse_binary ~lenient:true) (bcursor_of_bytes b)

let load_binary_result path =
  io_guard (fun () ->
      In_channel.with_open_bin path (fun ic ->
          strict (parse_binary ~lenient:false) (bcursor_of_channel ic)))

let is_binary_path path = Filename.check_suffix path ".gctb"

let load_any_result path =
  if is_binary_path path then load_binary_result path else load_result path

let load_lenient path =
  io_guard (fun () ->
      if is_binary_path path then
        In_channel.with_open_bin path (fun ic ->
            lenient_ (parse_binary ~lenient:true) (bcursor_of_channel ic))
      else
        In_channel.with_open_text path (fun ic ->
            lenient_ (parse_text ~lenient:true) (cursor_of_channel ic)))

let save_binary path t =
  (* Below gc_obs, same as [save]; the GCTB footer checksum makes a
     truncated binary artifact fail loudly at load time. *)
  (Out_channel.with_open_bin [@lint.allow "raw-artifact-write"]) path
    (fun oc -> Out_channel.output_bytes oc (to_bytes t))
