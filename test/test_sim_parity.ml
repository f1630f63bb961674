(* Golden-parity suite for the optimized cycle simulator.

   The optimized [Core] must reproduce the seed simulator's statistics
   bit-for-bit: the rewrite is a performance refactor, not a model change.
   Two layers of defense:

   - golden: every workload's (cycles, blocks, branch_mispredicts,
     callret_mispredicts, dcache_misses, load_flushes) must equal the
     committed fixture [Sim_golden.per_workload], recorded from the seed.
   - differential: on a few workloads, run [Core] and the frozen
     [Core_ref] side by side and compare the *complete* timing record
     plus the operand-network profile, catching drift in fields the
     fixture does not pin.

   The sampled simulator ([Sampled]) is pinned the same way: its
   estimates must equal the committed fixture [Sampled_golden] bit for
   bit, and on short workloads the true cycle count must fall inside its
   reported interval.  Its detailed-stretch path, stretched over the
   whole run, runs the same two layers as [Core] (the
   [golden_specialized] and [differential_specialized] groups, named for
   the specialized engine that timed those stretches before [Core] did):
   every golden workload bit-identical to the fixture, and the
   full-record differential against [Core_ref].

   The default run checks a fast subset (a few seconds); set
   TRIPS_PARITY_FULL=1 to sweep all registered workloads (the CI battery
   does). *)

module Registry = Trips_workloads.Registry
module Platforms = Trips_harness.Platforms
module Image = Trips_tir.Image
module Exec = Trips_edge.Exec
module Core = Trips_sim.Core
module Core_ref = Trips_sim.Core_ref
module Checkpoint = Trips_sim.Checkpoint
module Sampled = Trips_sim.Sampled

let full = Sys.getenv_opt "TRIPS_PARITY_FULL" <> None

(* Small, fast workloads that still cover the interesting stat columns:
   dcache misses (ct, pktflow), branch mispredicts (a2time, tblook),
   call/ret mispredicts (8b10b, vortex), float code (fft, wupwise). *)
let fast_subset =
  [ "ct"; "conv"; "vadd"; "basefp"; "fft"; "aifftr"; "tblook"; "a2time";
    "pktflow"; "wupwise"; "8b10b"; "vortex" ]

let golden_rows () =
  if full then Sim_golden.per_workload
  else
    List.filter
      (fun (name, _, _, _, _, _, _) -> List.mem name fast_subset)
      Sim_golden.per_workload

let compiled name =
  let b = Registry.find name in
  let prog = Platforms.edge_program Platforms.C b in
  let image = Image.build b.Registry.program.Trips_tir.Ast.globals in
  (prog, image)

let check_golden_with run (name, cycles, blocks, bm, cm, dm, lf) () =
  let prog, image = compiled name in
  let r : Core.result = run prog image ~entry:"main" ~args:[] in
  let t = r.Core.timing in
  Alcotest.(check int) "cycles" cycles t.Core.cycles;
  Alcotest.(check int) "blocks" blocks t.Core.blocks;
  Alcotest.(check int) "branch_mispredicts" bm t.Core.branch_mispredicts;
  Alcotest.(check int) "callret_mispredicts" cm t.Core.callret_mispredicts;
  Alcotest.(check int) "dcache_misses" dm t.Core.dcache_misses;
  Alcotest.(check int) "load_flushes" lf t.Core.load_flushes

let check_golden = check_golden_with (fun p i ~entry ~args -> Core.run p i ~entry ~args)

(* Sampling parameters whose first detailed stretch never ends: the whole
   run is timed by [Sampled]'s own detailed path and must come back as an
   exact estimate of the complete [Core] result. *)
let all_detail =
  { Sampled.sp_period = max_int; sp_warm = 0; sp_measure = max_int - 1;
    sp_min_intervals = 1 }

let sampled_all_detail p i ~entry ~args =
  let r, est = Sampled.run ~params:all_detail p i ~entry ~args in
  Alcotest.(check bool) "es_full" true est.Sampled.es_full;
  Alcotest.(check int) "es_intervals" 0 est.Sampled.es_intervals;
  Alcotest.(check int) "es_total_blocks" r.Core.exec.Exec.blocks
    est.Sampled.es_total_blocks;
  Alcotest.(check (float 0.)) "es_cycles"
    (float_of_int r.Core.timing.Core.cycles) est.Sampled.es_cycles;
  r

let check_golden_sampled = check_golden_with sampled_all_detail

(* Field-by-field comparison against the frozen reference simulator.
   Each run gets a fresh image: execution mutates program memory. *)
let check_differential_with run name () =
  let b = Registry.find name in
  let prog = Platforms.edge_program Platforms.C b in
  let fresh_image () = Image.build b.Registry.program.Trips_tir.Ast.globals in
  let o : Core.result = run prog (fresh_image ()) ~entry:"main" ~args:[] in
  let r = Core_ref.run prog (fresh_image ()) ~entry:"main" ~args:[] in
  let ot = o.Core.timing and rt = r.Core_ref.timing in
  let ck what a b = Alcotest.(check int) what a b in
  ck "cycles" rt.Core_ref.cycles ot.Core.cycles;
  ck "blocks" rt.Core_ref.blocks ot.Core.blocks;
  ck "branch_mispredicts" rt.Core_ref.branch_mispredicts ot.Core.branch_mispredicts;
  ck "callret_mispredicts" rt.Core_ref.callret_mispredicts
    ot.Core.callret_mispredicts;
  ck "load_flushes" rt.Core_ref.load_flushes ot.Core.load_flushes;
  ck "icache_misses" rt.Core_ref.icache_misses ot.Core.icache_misses;
  ck "dcache_misses" rt.Core_ref.dcache_misses ot.Core.dcache_misses;
  ck "l2_misses" rt.Core_ref.l2_misses ot.Core.l2_misses;
  ck "peak_occupancy" rt.Core_ref.peak_occupancy ot.Core.peak_occupancy;
  ck "l1d_bytes" rt.Core_ref.l1d_bytes ot.Core.l1d_bytes;
  ck "l2_bytes" rt.Core_ref.l2_bytes ot.Core.l2_bytes;
  ck "dram_bytes" rt.Core_ref.dram_bytes ot.Core.dram_bytes;
  Alcotest.(check (float 1e-9)) "occupancy_weighted"
    rt.Core_ref.occupancy_weighted ot.Core.occupancy_weighted;
  Alcotest.(check (float 1e-9)) "occupancy_useful" rt.Core_ref.occupancy_useful
    ot.Core.occupancy_useful;
  let op = o.Core.opn and rp = r.Core_ref.opn in
  ck "opn_packets" rp.Trips_noc.Opn.total_packets op.Trips_noc.Opn.total_packets;
  ck "opn_hops" rp.Trips_noc.Opn.total_hops op.Trips_noc.Opn.total_hops;
  ck "opn_contention" rp.Trips_noc.Opn.contention_cycles
    op.Trips_noc.Opn.contention_cycles;
  (* per-block profiles must agree label by label *)
  let obs =
    List.map (fun (l, (b : Core.block_obs)) ->
        (l, b.Core.bo_instances, b.Core.bo_latency, b.Core.bo_residency))
  in
  let robs =
    List.map (fun (l, (b : Core_ref.block_obs)) ->
        ( l, b.Core_ref.bo_instances, b.Core_ref.bo_latency,
          b.Core_ref.bo_residency ))
  in
  Alcotest.(check bool) "block_profile" true
    (obs o.Core.block_profile = robs r.Core_ref.block_profile)

let check_differential =
  check_differential_with (fun p i ~entry ~args -> Core.run p i ~entry ~args)

let check_differential_sampled = check_differential_with sampled_all_detail

(* Checkpoint contract: architectural replay of the tail is exact (same
   return value, block counts adding up to the full run), and resuming
   the same checkpoint twice is deterministic.  Timing at the seam is
   approximate by design, so cycle counts are not compared against the
   full run. *)
let check_checkpoint name () =
  let b = Registry.find name in
  let prog = Platforms.edge_program Platforms.C b in
  let fresh_image () = Image.build b.Registry.program.Trips_tir.Ast.globals in
  let full = Core.run prog (fresh_image ()) ~entry:"main" ~args:[] in
  let total = full.Core.exec.Exec.blocks in
  let after = total / 2 in
  (match Checkpoint.capture ~after prog (fresh_image ()) ~entry:"main" ~args:[] with
  | None -> Alcotest.fail "program finished before the checkpoint"
  | Some ck ->
    Alcotest.(check bool) "captured at or after the target" true
      (ck.Checkpoint.ck_blocks >= after);
    let tail = Checkpoint.resume ck prog in
    Alcotest.(check bool) "same return value" true
      (tail.Core.ret = full.Core.ret);
    (* functional statistics continue from the snapshot, so the resumed
       run ends with the full run's block count *)
    Alcotest.(check int) "blocks add up" total tail.Core.exec.Exec.blocks;
    let tail2 = Checkpoint.resume ck prog in
    Alcotest.(check int) "deterministic resume" tail.Core.timing.Core.cycles
      tail2.Core.timing.Core.cycles);
  (* a capture point past the end of the run is reported, not invented *)
  match
    Checkpoint.capture ~after:(total + 1) prog (fresh_image ()) ~entry:"main"
      ~args:[]
  with
  | None -> ()
  | Some _ -> Alcotest.fail "checkpoint past the end of the program"

(* Sampled contract: execution stays exact (return value, block count);
   the cycle estimate either is exact (full-detail fallback) or carries
   the true count within its own 95% interval on these workloads. *)
let check_sampled name () =
  let b = Registry.find name in
  let prog = Platforms.edge_program Platforms.C b in
  let fresh_image () = Image.build b.Registry.program.Trips_tir.Ast.globals in
  let full = Core.run prog (fresh_image ()) ~entry:"main" ~args:[] in
  let detailed, est =
    Sampled.run prog (fresh_image ()) ~entry:"main" ~args:[]
  in
  Alcotest.(check bool) "same return value" true
    (detailed.Core.ret = full.Core.ret);
  Alcotest.(check int) "exact block count" full.Core.exec.Exec.blocks
    est.Sampled.es_total_blocks;
  let actual = float_of_int full.Core.timing.Core.cycles in
  if est.Sampled.es_full then
    Alcotest.(check (float 0.5)) "exact cycles on full fallback" actual
      est.Sampled.es_cycles
  else
    Alcotest.(check bool) "true cycles within the reported CI" true
      (Float.abs (est.Sampled.es_cycles -. actual) <= est.Sampled.es_ci95)

(* Sampled golden: the estimate (every field but [es_ci95]) and the
   detailed-stretch cycle count must match [Sampled_golden] bit for bit. *)
let check_sampled_golden
    (name, detailed_cycles, cycles, intervals, measured, total, mean, sd, full)
    () =
  let prog, image = compiled name in
  let r, est = Sampled.run prog image ~entry:"main" ~args:[] in
  let bits what a b =
    Alcotest.(check int64) what (Int64.bits_of_float a) (Int64.bits_of_float b)
  in
  Alcotest.(check int) "detailed-stretch cycles" detailed_cycles
    r.Core.timing.Core.cycles;
  bits "es_cycles" cycles est.Sampled.es_cycles;
  Alcotest.(check int) "es_intervals" intervals est.Sampled.es_intervals;
  Alcotest.(check int) "es_measured_blocks" measured
    est.Sampled.es_measured_blocks;
  Alcotest.(check int) "es_total_blocks" total est.Sampled.es_total_blocks;
  bits "es_cpb_mean" mean est.Sampled.es_cpb_mean;
  bits "es_cpb_stddev" sd est.Sampled.es_cpb_stddev;
  Alcotest.(check bool) "es_full" full est.Sampled.es_full

(* True two-sided 95% Student-t quantiles, t_0.975(df), for the degrees of
   freedom the sampling rows of [Sampled_golden] produce. *)
let t975 =
  [ (30, 2.04227); (32, 2.03693); (35, 2.03011); (46, 2.01290);
    (86, 1.98793); (88, 1.98729); (193, 1.97233) ]

(* The reported interval must be at least as wide as a true 95% interval:
   the t value implied by [es_ci95] may not fall below the quantile for
   its df. *)
let check_sampled_t95 name () =
  let prog, image = compiled name in
  let _, est = Sampled.run prog image ~entry:"main" ~args:[] in
  let n = est.Sampled.es_intervals in
  let implied =
    est.Sampled.es_ci95
    /. (est.Sampled.es_cpb_stddev /. sqrt (float_of_int n)
       *. float_of_int est.Sampled.es_total_blocks)
  in
  match List.assoc_opt (n - 1) t975 with
  | None -> Alcotest.failf "no t quantile tabulated for df %d" (n - 1)
  | Some q ->
    if implied < q then
      Alcotest.failf "df %d: implied t %.5f below the 95%% quantile %.5f"
        (n - 1) implied q

let () =
  Alcotest.run "sim_parity"
    [
      ( "golden",
        List.map
          (fun ((name, _, _, _, _, _, _) as row) ->
            Alcotest.test_case name `Quick (check_golden row))
          (golden_rows ()) );
      ( "differential",
        List.map
          (fun name -> Alcotest.test_case name `Quick (check_differential name))
          [ "fft"; "basefp"; "pktflow"; "vortex"; "a2time"; "8b10b" ] );
      ( "golden_specialized",
        List.map
          (fun ((name, _, _, _, _, _, _) as row) ->
            Alcotest.test_case name `Quick (check_golden_sampled row))
          (golden_rows ()) );
      ( "differential_specialized",
        List.map
          (fun name ->
            Alcotest.test_case name `Quick (check_differential_sampled name))
          [ "fft"; "basefp"; "pktflow"; "vortex"; "a2time"; "8b10b" ] );
      ( "checkpoint",
        List.map
          (fun name -> Alcotest.test_case name `Quick (check_checkpoint name))
          [ "fft"; "a2time"; "vortex" ] );
      ( "sampled",
        List.map
          (fun name -> Alcotest.test_case name `Quick (check_sampled name))
          [ "fft"; "ct"; "tblook" ]
        @ List.map
            (fun ((name, _, _, _, _, _, _, _, _) as row) ->
              Alcotest.test_case (name ^ " golden") `Quick
                (check_sampled_golden row))
            Sampled_golden.per_workload
        @ List.filter_map
            (fun (name, _, _, _, _, _, _, _, full) ->
              if full then None
              else
                Some
                  (Alcotest.test_case (name ^ " t95") `Quick
                     (check_sampled_t95 name)))
            Sampled_golden.per_workload );
    ]
