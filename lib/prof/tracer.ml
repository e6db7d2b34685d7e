(* A completed span, as returned by [dump].  [ts_ns] is a monotonic
   Clock reading; [dur_ns] the measured extent; the three word counts
   are Gc.quick_stat deltas across the span. *)
type span = {
  name : string;
  tid : int;
  ts_ns : int;
  dur_ns : int;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  args : (string * string) list;
}

(* Ring slots are preallocated and mutated in place: recording a span
   writes fields of an existing slot, it never allocates.  [seq] is the
   claim ticket; a [leave] whose ticket no longer matches the slot lost
   the slot to a wraparound or a restart and drops its measurement.
   [s_dur] is -1 while the span is open; [dump] skips open slots. *)
type slot = {
  mutable seq : int;
  mutable s_name : string;
  mutable s_tid : int;
  mutable s_ts : int;
  mutable s_dur : int;
  mutable s_minor : float;
  mutable s_major : float;
  mutable s_promoted : float;
  mutable s_args : (string * string) list;
}

let default_capacity = 65536

(* [enabled] is the whole cost of the null tracer: one Atomic.get on
   the hot path, no allocation, no clock read.  Everything else is only
   touched when tracing is on. *)
let enabled_flag = Atomic.make false

(* One ring for the whole process, replaced only by [start].  Tickets
   come from [next], which is never reset: a ticket claimed before a
   [start] can never equal the [seq] of a slot in the new ring, so a
   [leave] straddling a restart drops its span instead of closing
   someone else's.  [enter] and [emit] read the ring before taking a
   ticket, so a span claimed across a [start] lands in the old ring and
   is lost, never in the new one. *)
let ring : slot array Atomic.t = Atomic.make [||]
let next = Atomic.make 0

let fresh_slot _ =
  {
    seq = -1;
    s_name = "";
    s_tid = 0;
    s_ts = 0;
    s_dur = -1;
    s_minor = 0.;
    s_major = 0.;
    s_promoted = 0.;
    s_args = [];
  }

let round_up_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let slot_of slots ticket = slots.(ticket land (Array.length slots - 1))

let enabled () = Atomic.get enabled_flag

let stop () = Atomic.set enabled_flag false

let start ?capacity:(cap = default_capacity) () =
  if cap < 1 then invalid_arg "Tracer.start: capacity must be positive";
  Atomic.set ring (Array.init (round_up_pow2 cap) fresh_slot);
  Atomic.set enabled_flag true

let enter ?(args = []) ?(tid = -1) name =
  if not (Atomic.get enabled_flag) then -1
  else begin
    let slots = Atomic.get ring in
    let ticket = Atomic.fetch_and_add next 1 in
    let slot = slot_of slots ticket in
    let st = Gc.quick_stat () in
    slot.seq <- ticket;
    slot.s_name <- name;
    slot.s_tid <- (if tid >= 0 then tid else (Domain.self () :> int));
    slot.s_dur <- -1;
    slot.s_args <- args;
    slot.s_minor <- st.Gc.minor_words;
    slot.s_major <- st.Gc.major_words;
    slot.s_promoted <- st.Gc.promoted_words;
    slot.s_ts <- Clock.now_ns ();
    ticket
  end

let leave ticket =
  if ticket >= 0 then begin
    let stop_ns = Clock.now_ns () in
    let slot = slot_of (Atomic.get ring) ticket in
    if slot.seq = ticket then begin
      let st = Gc.quick_stat () in
      slot.s_dur <- stop_ns - slot.s_ts;
      slot.s_minor <- st.Gc.minor_words -. slot.s_minor;
      slot.s_major <- st.Gc.major_words -. slot.s_major;
      slot.s_promoted <- st.Gc.promoted_words -. slot.s_promoted
    end
  end

let emit ?(args = []) ?(tid = -1) ~ts_ns ~dur_ns name =
  if Atomic.get enabled_flag then begin
    let slots = Atomic.get ring in
    let ticket = Atomic.fetch_and_add next 1 in
    let slot = slot_of slots ticket in
    slot.seq <- ticket;
    slot.s_name <- name;
    slot.s_tid <- (if tid >= 0 then tid else (Domain.self () :> int));
    slot.s_ts <- ts_ns;
    slot.s_dur <- dur_ns;
    slot.s_args <- args;
    slot.s_minor <- 0.;
    slot.s_major <- 0.;
    slot.s_promoted <- 0.
  end

let dump () =
  Array.fold_left
    (fun spans slot ->
      if slot.seq >= 0 && slot.s_dur >= 0 then
        {
          name = slot.s_name;
          tid = slot.s_tid;
          ts_ns = slot.s_ts;
          dur_ns = slot.s_dur;
          minor_words = slot.s_minor;
          major_words = slot.s_major;
          promoted_words = slot.s_promoted;
          args = slot.s_args;
        }
        :: spans
      else spans)
    [] (Atomic.get ring)
  |> List.sort (fun a b -> compare (a.ts_ns, a.tid) (b.ts_ns, b.tid))
