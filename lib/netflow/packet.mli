(** Packetization of connections into header-trace records.

    Produces what a link monitor captures: per-packet timestamps, the TCP
    5-tuple, sizes, and SYN flags. The initiator's first packet is a pure
    SYN; the responder's first packet is a SYN-ACK — the paper's trace
    methodology identifies the connection initiator as "the sender of the
    TCP SYN packet". *)

type t = {
  time_s : float;
  src_node : int;
  dst_node : int;
  src_port : int;
  dst_port : int;
  bytes : float;
  syn : bool;  (** pure SYN: first packet from the initiator *)
  syn_ack : bool;  (** first packet from the responder *)
}

val of_connection : Connection.t -> t list
(** Both directions of one connection: forward packets from the initiator's
    node, reverse packets from the responder's node, spread uniformly over
    the connection's duration (handshake first). *)

val flow_key : t -> int * int * int * int
(** Canonical per-direction 5-tuple key
    [(src_node, dst_node, src_port, dst_port)] (protocol is always TCP). *)

val reverse_key : int * int * int * int -> int * int * int * int
(** The matching key of the opposite direction. *)
