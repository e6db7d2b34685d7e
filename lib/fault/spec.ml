type fault_class =
  | Phantom_hit
  | Phantom_miss
  | Drop_requested
  | Wrong_block_load
  | Double_load
  | Reload_cached
  | Spurious_evict
  | Ghost_evict
  | Hidden_evict
  | Over_occupancy

type t = { fault : fault_class; at : int }

let all =
  [
    Phantom_hit;
    Phantom_miss;
    Drop_requested;
    Wrong_block_load;
    Double_load;
    Reload_cached;
    Spurious_evict;
    Ghost_evict;
    Hidden_evict;
    Over_occupancy;
  ]

let to_string = function
  | Phantom_hit -> "phantom-hit"
  | Phantom_miss -> "phantom-miss"
  | Drop_requested -> "drop-requested"
  | Wrong_block_load -> "wrong-block-load"
  | Double_load -> "double-load"
  | Reload_cached -> "reload-cached"
  | Spurious_evict -> "spurious-evict"
  | Ghost_evict -> "ghost-evict"
  | Hidden_evict -> "hidden-evict"
  | Over_occupancy -> "over-occupancy"

let of_string s = List.find_opt (fun f -> to_string f = s) all

let class_names () = String.concat ", " (List.map to_string all)

let parse s =
  let cls, at =
    match String.index_opt s '@' with
    | Some i ->
        ( String.sub s 0 i,
          Some (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> (s, None)
  in
  match of_string cls with
  | None ->
      Error
        (Printf.sprintf "unknown fault class %S (valid: %s)" cls
           (class_names ()))
  | Some fault -> (
      match at with
      | None -> Ok { fault; at = 0 }
      | Some v -> (
          match int_of_string_opt v with
          | Some at when at >= 0 -> Ok { fault; at }
          | _ -> Error (Printf.sprintf "bad arm index %S in fault spec" v)))

let spec_string { fault; at } =
  if at = 0 then to_string fault
  else Printf.sprintf "%s@%d" (to_string fault) at
