type cell = {
  key : string;
  payload : Gc_obs.Json.t option;
  resumed : bool;
}

type stats = {
  total : int;
  resumed : int;
  ran : int;
  cancelled : int;
  interrupted : bool;
}

let journal_error path e =
  failwith (Printf.sprintf "%s: %s" path (Journal.string_of_error e))

let run ?config ?interrupt ?journal ?(resume = false)
    ?(meta = Gc_obs.Json.Null) ~to_error cells =
  let completed : (string, Gc_obs.Json.t) Hashtbl.t = Hashtbl.create 64 in
  let writer =
    match journal with
    | None -> None
    | Some path when resume -> (
        match Journal.resume path with
        | Error e -> journal_error path e
        | Ok (loaded, w) ->
            if Gc_obs.Json.to_string loaded.meta <> Gc_obs.Json.to_string meta
            then
              failwith
                (Printf.sprintf
                   "%s: journal belongs to a different invocation (metadata \
                    mismatch); refusing to resume"
                   path);
            List.iter
              (fun (cell, payload) ->
                if not (Hashtbl.mem completed cell) then
                  Hashtbl.add completed cell payload)
              loaded.entries;
            Some w)
    | Some path -> Some (Journal.create path ~meta)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Journal.close writer)
    (fun () ->
      let pending =
        List.filter (fun (key, _) -> not (Hashtbl.mem completed key)) cells
      in
      let pending_keys = Array.of_list (List.map fst pending) in
      let fresh : (string, Gc_obs.Json.t) Hashtbl.t = Hashtbl.create 64 in
      let record key payload =
        Hashtbl.replace fresh key payload;
        Option.iter (fun w -> Journal.append w key payload) writer
      in
      let on_outcome i outcome =
        let key = pending_keys.(i) in
        match outcome with
        | Pool.Done payload -> record key payload
        | Pool.Failed exn ->
            record key
              (to_error ~key ~kind:"exception" ~message:(Printexc.to_string exn))
        | Pool.Timed_out deadline ->
            record key
              (to_error ~key ~kind:"timeout"
                 ~message:
                   (Printf.sprintf "cell exceeded its %gs deadline" deadline))
        | Pool.Cancelled -> ()
      in
      ignore
        (Pool.run ?config ?interrupt ~on_outcome (List.map snd pending));
      let results =
        List.map
          (fun (key, _) ->
            match Hashtbl.find_opt completed key with
            | Some payload -> { key; payload = Some payload; resumed = true }
            | None -> (
                match Hashtbl.find_opt fresh key with
                | Some payload ->
                    { key; payload = Some payload; resumed = false }
                | None -> { key; payload = None; resumed = false }))
          cells
      in
      let count p = List.length (List.filter p results) in
      let stats =
        {
          total = List.length results;
          resumed = count (fun c -> c.resumed);
          ran = count (fun c -> (not c.resumed) && c.payload <> None);
          cancelled = count (fun c -> c.payload = None);
          interrupted =
            (match interrupt with
            | Some t -> Cancel.requested t
            | None -> false);
        }
      in
      (results, stats))
