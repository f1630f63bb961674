(** The TRIPS operand network (OPN): a 5x5 wormhole-routed mesh delivering
    one 64-bit operand per link per cycle ([6], §5.2).

    Row 0 carries the global tile and the four register tiles, column 0 the
    four data tiles, and the inner 4x4 the execution tiles.  Messages are
    single-operand and route Y-first; each hop costs one cycle plus any
    wait for the link, which is how the model exposes the contention the
    paper identifies as the top microarchitectural performance loss (§7).

    The module accumulates the per-class hop histogram of Fig 8. *)

type cls = Et_et | Et_dt | Et_rt | Et_gt | Dt_rt | Dt_et | Rt_et | Gt_any

type t

val create : unit -> t

val send : t -> src:int * int -> dst:int * int -> cls -> now:int -> int
(** [send t ~src ~dst cls ~now] routes one operand and returns its arrival
    cycle.  A local bypass ([src = dst]) arrives at [now]. *)

val hops : src:int * int -> dst:int * int -> int

val route : int * int -> int * int -> (int * int) list
(** [route src dst] is the Y-first dimension-ordered path as
    [(node, direction)] link claims, one per hop ([direction]: 0 = row-,
    1 = row+, 2 = col+, 3 = col-).  [send] traverses exactly this path
    (without materializing it); exposed for tests and path inspection. *)

val node : int -> int -> int
(** [node row col] is the mesh node index used in {!route} steps. *)

val path_ids : src:int * int -> dst:int * int -> int list
(** The link ids claimed by [route src dst], in claim order.  Callers with
    static endpoints (the cycle simulator's per-block timing plans)
    precompute these once and replay them with {!claim_path}. *)

val claim_path :
  t -> ci:int -> paths:int array -> off:int -> len:int -> now:int -> int
(** [claim_path t ~ci ~paths ~off ~len ~now] is {!send} over the
    precomputed path [paths.(off) .. paths.(off + len - 1)] for a message
    of class index [ci] ([len] = hop count): identical link claims, in the
    same order, and identical profile accounting. *)

type profile = {
  packets : int array array;   (* class index x hop bucket (0..5, 5 = 5+) *)
  mutable contention_cycles : int;
  mutable total_packets : int;
  mutable total_hops : int;
}

val profile : t -> profile
val class_index : cls -> int
val class_name : int -> string
val average_hops : t -> float
val reset : t -> unit
