(** Simulation checkpoints: simulate a warm-up prefix once, snapshot the
    state, resume the tail later (possibly many times) without paying
    the prefix again.

    A checkpoint couples architectural state at a block boundary
    (register file, call stack, next label, memory image) with the
    microarchitectural warm state the paper's methodology cares about:
    block predictor, dependence predictor and the three caches.

    Architectural replay is exact; timing is approximate at the seam
    (the resumed clock, operand-network occupancy and in-flight window
    restart cold), so resumed cycle counts differ from the same tail of
    a full run by at most a few pipeline depths. *)

type t = {
  ck_snapshot : Trips_edge.Exec.snapshot;
  ck_image : Trips_tir.Image.t;
  ck_pred : Trips_predictor.Blockpred.t;
  ck_dep : Trips_predictor.Depend.t;
  ck_l1d : Trips_mem.Cache.t;
  ck_l1i : Trips_mem.Cache.t;
  ck_l2 : Trips_mem.Cache.t;
  ck_config : Core.config;
  ck_blocks : int;
}

val capture :
  ?config:Core.config ->
  ?fuel:int ->
  after:int ->
  Trips_edge.Block.program ->
  Trips_tir.Image.t ->
  entry:string ->
  args:Trips_tir.Ty.value list ->
  t option
(** Run the detailed simulator for [after] committed block instances and
    checkpoint at the next block boundary.  [None] if the program
    finishes first.  The passed image is mutated up to the capture
    point (the checkpoint stores its own copy). *)

val resume : ?fuel:int -> t -> Trips_edge.Block.program -> Core.result
(** Simulate the program tail from the checkpoint.  [timing.cycles]
    counts from the resume point. *)
