type t = Event.t -> unit

let null _ = ()
let tee sinks ev = List.iter (fun sink -> sink ev) sinks

let jsonl ?(labels = []) oc =
  let labels = List.map (fun (key, v) -> (key, Json.String v)) labels in
  fun ev ->
    let json =
      match (labels, Event.to_json ev) with
      | [], json -> json
      | labels, Json.Obj fields -> Json.Obj (labels @ fields)
      | labels, other -> Json.Obj (labels @ [ ("event", other) ])
    in
    Json.to_channel oc json;
    output_char oc '\n'

module Ring = struct
  type t = {
    buf : Event.t option array;
    mutable next : int;
    mutable total : int;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Sink.Ring.create: capacity must be >= 1";
    { buf = Array.make capacity None; next = 0; total = 0 }

  let sink t ev =
    t.buf.(t.next) <- Some ev;
    t.next <- (t.next + 1) mod Array.length t.buf;
    t.total <- t.total + 1

  let length t = min t.total (Array.length t.buf)
  let total t = t.total

  let contents t =
    let cap = Array.length t.buf in
    let n = length t in
    let first = (t.next - n + cap) mod cap in
    List.init n (fun idx ->
        match t.buf.((first + idx) mod cap) with
        | Some ev -> ev
        | None -> assert false)

  let clear t =
    Array.fill t.buf 0 (Array.length t.buf) None;
    t.next <- 0;
    t.total <- 0
end

module Count = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let sink (t : t) ev =
    let key = Event.kind_name ev in
    match Hashtbl.find_opt t key with
    | Some r -> incr r
    | None -> Hashtbl.add t key (ref 1)

  let get t key = match Hashtbl.find_opt t key with Some r -> !r | None -> 0
  let by_kind t = List.map (fun key -> (key, get t key)) Event.kind_names
  let total t = Hashtbl.fold (fun _ r acc -> acc + !r) t 0
end
