(** The replica WAL format and its recovery read-back, written and read
    only by {!Group}; the op codec is a parameter.

    One line per record.  A slot is written as its freshly applied
    entries followed by a commit marker; recovery only trusts slots
    whose marker made it to disk, so a batch is committed atomically.

    {v
    E <slot> <cid> <encoded command>
    C <slot> <winner>
    v}

    A snapshot payload is three lines: covered slot, serialized state,
    comma-separated delivered cids.  Numbers are written by
    {!Store.Codec.int}.  Encoded ops and states must not contain a
    newline. *)

type 'op entry = { cid : int; op : 'op }
(** A uniquely identified command ([cid] de-duplicates re-submissions). *)

val encode_entry : op_to_string:('op -> string) -> int -> 'op entry -> string
(** [encode_entry ~op_to_string slot e] is [e]'s record in [slot]. *)

val encode_commit : int -> int -> string
(** [encode_commit slot winner] is [slot]'s commit marker. *)

val encode_snapshot : upto:int -> state:string -> cids:int list -> string

type 'op recovered = {
  r_snap : (int * string * int list) option;  (** upto, state, cids *)
  r_slots : (int * int * 'op entry list) list;
      (** every committed slot on disk (slot, winner, entries), ascending *)
  r_next_slot : int;  (** end of the contiguous committed prefix *)
  r_cids : int list;  (** the delivered set recovery reproduces *)
}

val recover : op_of_string:(string -> 'op) -> Store.Disk.t -> 'op recovered
(** Read a disk back the way recovery would: the latest snapshot, then
    the WAL, trusting only slots whose commit marker survived, and only
    up to the first gap in slot numbers (a gap means that slot's batch
    was still volatile at the crash, so everything logically after it
    must be re-delivered).  A slot's records appended twice by retries
    replay once per (slot, cid). *)
