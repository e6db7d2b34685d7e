(* A completed span, as returned by [dump].  [ts_ns] is a monotonic
   Clock reading; [dur_ns] the measured extent; [minor_words] the
   [Gc.minor_words] delta across the span. *)
type span = {
  name : string;
  tid : int;
  ts_ns : int;
  dur_ns : int;
  minor_words : int;
  args : (string * string) list;
}

(* Ring slots are preallocated and mutated in place: recording a span
   writes fields of an existing slot, it never allocates.  [seq] is the
   claim ticket; a [leave] whose ticket no longer matches the slot lost
   the slot to a wraparound or a restart and drops its measurement.
   [s_dur] is -1 while the span is open; [dump] skips open slots.
   [s_minor] is an [int]: a float field of this mixed record would box
   every write. *)
type slot = {
  mutable seq : int;
  mutable s_name : string;
  mutable s_tid : int;
  mutable s_ts : int;
  mutable s_dur : int;
  mutable s_minor : int;
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
    s_minor = 0;
    s_args = [];
  }

let round_up_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let slot_of slots ticket = slots.(ticket land (Array.length slots - 1))

let enabled () = Atomic.get enabled_flag

(* [Gc.minor_words] is an unboxed external: it counts this domain's
   minor words exactly and allocates nothing, where [Gc.quick_stat]
   lags by up to a minor heap and allocates its record. *)
let minor_words () = int_of_float (Gc.minor_words ())

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
    slot.seq <- ticket;
    slot.s_name <- name;
    slot.s_tid <- (if tid >= 0 then tid else (Domain.self () :> int));
    slot.s_dur <- -1;
    slot.s_args <- args;
    slot.s_minor <- minor_words ();
    slot.s_ts <- Clock.now_ns ();
    ticket
  end

let leave ticket =
  if ticket >= 0 then begin
    let stop_ns = Clock.now_ns () in
    let slot = slot_of (Atomic.get ring) ticket in
    if slot.seq = ticket then begin
      slot.s_dur <- stop_ns - slot.s_ts;
      slot.s_minor <- minor_words () - slot.s_minor
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
    slot.s_minor <- 0
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
          args = slot.s_args;
        }
        :: spans
      else spans)
    [] (Atomic.get ring)
  |> List.sort (fun a b -> compare (a.ts_ns, a.tid) (b.ts_ns, b.tid))
