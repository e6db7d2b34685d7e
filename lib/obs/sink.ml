type t = Event.t -> unit

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
