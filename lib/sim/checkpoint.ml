(* Simulation checkpoints: run the detailed model for a warm-up prefix,
   snapshot everything the rest of the run depends on, and resume later
   — possibly many times, e.g. once per candidate configuration — without
   re-simulating the prefix.

   A checkpoint pairs the architectural state at a block boundary
   ([Exec.snapshot]: next label, register file, call stack) and a copy
   of the memory image with the *microarchitectural* warm state: block
   predictor, dependence predictor and all three caches.  Resuming
   builds a fresh simulator, splices the warmed structures in, and
   drives [Exec.run ~resume].

   Contract: architectural replay is exact — a resumed run executes the
   same blocks, in the same order, with the same memory traffic as the
   tail of the original run.  Timing is approximate at the seam: the
   resumed clock starts at zero, operand-network occupancy and the
   in-flight block window restart cold, so cycle counts differ from the
   same tail inside a full run by a few pipeline depths at most. *)

module Image = Trips_tir.Image
module Block = Trips_edge.Block
module Exec = Trips_edge.Exec
module Blockpred = Trips_predictor.Blockpred
module Depend = Trips_predictor.Depend
module Cache = Trips_mem.Cache

type t = {
  ck_snapshot : Exec.snapshot;
  ck_image : Image.t;          (* memory at the capture point *)
  ck_pred : Blockpred.t;       (* warmed predictor state *)
  ck_dep : Depend.t;
  ck_l1d : Cache.t;
  ck_l1i : Cache.t;
  ck_l2 : Cache.t;
  ck_config : Core.config;
  ck_blocks : int;             (* block instances before the checkpoint *)
}

let capture ?(config = Core.prototype) ?fuel ~after (program : Block.program)
    image ~entry ~args =
  let s = Core.make_sim ~config program in
  let on_instance (inst : Exec.instance) =
    let plan = Hashtbl.find s.Core.plans inst.Exec.iblock.Block.label in
    Core.step_instance s plan inst
  in
  match Exec.capture ?fuel ~on_instance ~after program image ~entry ~args with
  | Exec.Finished _ -> None
  | Exec.Snapshot sn ->
    Some
      {
        ck_snapshot = Exec.copy_snapshot sn;
        ck_image = Image.copy image;
        ck_pred = Blockpred.copy s.Core.pred;
        ck_dep = Depend.copy s.Core.dep;
        ck_l1d = Cache.copy s.Core.l1d;
        ck_l1i = Cache.copy s.Core.l1i;
        ck_l2 = Cache.copy s.Core.l2;
        ck_config = config;
        ck_blocks = sn.Exec.sn_blocks;
      }

(* Fresh simulator with the checkpoint's warm state spliced in, plus a
   private copy of the image.  The shadow call stack mirrors the
   architectural one so return prediction stays aligned. *)
let restore ck (program : Block.program) =
  let s = Core.make_sim ~config:ck.ck_config program in
  s.Core.pred <- Blockpred.copy ck.ck_pred;
  s.Core.dep <- Depend.copy ck.ck_dep;
  s.Core.l1d <- Cache.copy ck.ck_l1d;
  s.Core.l1i <- Cache.copy ck.ck_l1i;
  s.Core.l2 <- Cache.copy ck.ck_l2;
  s.Core.shadow_stack <- List.map snd ck.ck_snapshot.Exec.sn_stack;
  (s, Image.copy ck.ck_image)

let resume ?fuel ck (program : Block.program) =
  let s, image = restore ck program in
  let on_instance (inst : Exec.instance) =
    let plan = Hashtbl.find s.Core.plans inst.Exec.iblock.Block.label in
    Core.step_instance s plan inst
  in
  let exec_result =
    Exec.run ?fuel ~on_instance ~resume:ck.ck_snapshot program image
      ~entry:ck.ck_snapshot.Exec.sn_label ~args:[]
  in
  Core.collect_result s exec_result
