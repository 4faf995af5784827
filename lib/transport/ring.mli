(** Per-connection SPSC submission/completion rings in the shared
    heap.

    A ring is a fixed array of sequence-stamped slots plus a 64-byte
    header, formatted inside a caller-provided span of a
    {!Shm.Region} (in practice: a Ralloc block in the protected heap,
    its pages sealed under a per-connection {!Pku.Vpkey}). One side
    produces messages — byte strings spanning one or more consecutive
    slots — and the other consumes them; the publish protocol stamps
    the first slot's sequence word last, so a message killed
    mid-produce is absent after {!recover}, never torn.

    Pure region mechanics: no substrate, no simulated-cost charging,
    no pkru manipulation — callers hold the pages' key and charge
    their own costs. *)

type t

val hdr_bytes : int

val bytes_for : slots:int -> slot_bytes:int -> int
(** Region bytes needed for a ring of [slots] slots. *)

val init :
  Shm.Region.t -> base:int -> slots:int -> slot_bytes:int -> t
(** Format an empty ring at [base]. Raises [Invalid_argument] on
    degenerate geometry (fewer than 2 slots, or slots too small to
    carry a payload byte). *)

val attach : Shm.Region.t -> base:int -> t
(** Reattach to a formatted ring; raises [Invalid_argument] if the
    magic or geometry words are corrupt. *)

val frag_cap : t -> int
(** Payload bytes per slot. *)

val max_msg : t -> int
(** Largest single message ([slots * frag_cap]); producers chunk
    anything bigger into several messages. *)

val head : t -> int

val tail : t -> int

val acked : t -> int

val slots_used : t -> int

val is_empty : t -> bool

val has_room : t -> len:int -> bool

val produce : t -> stamp:int -> string -> unit
(** Publish one message, stamped with the producer's enqueue time.
    Raises [Invalid_argument] when the message is empty, larger than
    {!max_msg}, or the ring lacks room ({!has_room} first). *)

val consumer_armed : t -> bool

val set_armed : t -> bool -> unit
(** The doorbell handshake: a consumer that found the ring empty arms
    it, re-checks, and only then parks; a producer that sees the armed
    flag set pays the doorbell (syscall) to wake the consumer. *)

val is_dead : t -> bool

val mark_dead : t -> unit
(** Bounce: the consumer refuses the ring (validation failure or
    connection teardown); producers must stop and raise. *)

type pending = {
  p_msgs : int;  (** whole messages published and validated *)
  p_slots : int;  (** slots they occupy *)
  p_first_stamp : int;  (** enqueue time of the oldest *)
}

val pending : t -> (pending option, string) result
(** Validated walk of the published window ([Ok None] when empty).
    [Error] names the forgery: overfilled head/tail, a sequence stamp
    off its position, a length outside the envelope, a torn
    continuation. *)

val consume_all : t -> ((string * int) list, string) result
(** Drain every published message in order, with its stamp, advancing
    head and the acked watermark together. *)

val consume_one : t -> (string * int) option
(** Pop a single message with its stamp (the completion-side client
    path). *)

val recover : t -> unit
(** Post-crash repair: clamp broken header invariants, truncate the
    published window at the first torn entry, disarm. Fully published
    entries survive; a mid-produce kill leaves nothing behind. *)

(** {2 Shared-memory layout}

    The ring is a wire format in shared pages, not an opaque object:
    both endpoints address the same bytes, and nothing stops the
    producer side from writing them directly instead of going through
    {!produce}. Exposing where they live grants no authority — the
    pages answer only to the protection key they are sealed under —
    but it is exactly the position the red team's hostile-client
    scenario models, so the layout is part of the public contract. *)

val region : t -> Shm.Region.t

val slot_word : t -> int -> int
(** Absolute region offset of slot [pos]'s header words. *)

val tail_word : t -> int
(** Absolute region offset of the producer-tail header word. *)
