(** Slot arena: values parked under small int handles and recycled
    through a freelist.

    A hot layer parks an event's payload (a thunk, an envelope) here and
    schedules the slot number as a flat engine event's argument, so the
    event itself is a pure int.  Slots are checked against a limit when
    they are created: a slot that would not fit the event argument field
    is refused at [alloc], not corrupted later at dispatch. *)

type 'a t

val create : limit:int -> 'a t
(** An empty arena whose slots run from [0] to [limit] inclusive. *)

val alloc : 'a t -> 'a -> int
(** Park a value and return its slot.  The most recently freed slot is
    reused first.
    @raise Invalid_argument when every slot up to [limit] is occupied. *)

val take : 'a t -> int -> 'a
(** Free the slot and return its value.  The slot may be handed out
    again by the next {!alloc}, so read the value before anything else
    allocates.  The value stays referenced until the slot is reused. *)

val reset : 'a t -> unit
(** Free every slot at once, keeping the storage: {!alloc} then hands
    out slots from [0] as on a fresh arena.  The old values stay
    referenced until their slots are reused. *)

val live : 'a t -> 'a list
(** The values of every occupied slot, in slot order.  O(slots ever
    used); meant for inspection, not hot paths. *)
