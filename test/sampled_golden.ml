(* Golden estimates of the sampled simulator ([Sampled.run] with default
   parameters, preset C), recorded before its detailed stretches moved
   from the specialized engine to [Core].  Floats are hex literals, so the
   comparison is bit-exact.  The first seven rows sample; the last two
   are short enough to take the full-detail fallback.  [es_ci95] is not
   pinned: it depends only on the fields below and the Student-t table.

   name, detailed-stretch cycles, es_cycles, es_intervals,
   es_measured_blocks, es_total_blocks, es_cpb_mean, es_cpb_stddev,
   es_full *)
let per_workload = [
  ("twolf", 459665, 0x1.b5b1188fd5c5dp+21, 194, 15520, 198670, 0x1.20c4173988b58p+4, 0x1.3a118631b39a6p+1, false);
  ("fbital", 380004, 0x1.6ef127ec944dcp+21, 87, 6960, 89022, 0x1.0e226d764a26ep+5, 0x1.58323c04fb18dp+0, false);
  ("perlbmk", 186932, 0x1.658c6dfc8c5e4p+20, 89, 7120, 91064, 0x1.01511d56de0eep+4, 0x1.e163151713d1bp+0, false);
  ("gzip", 194076, 0x1.6f1719df51b3bp+20, 47, 3760, 48245, 0x1.f2a7c2fee91f8p+4, 0x1.224cd69d41e57p+0, false);
  ("parser", 135933, 0x1.fd61d61c71c72p+19, 36, 2880, 36029, 0x1.cf471c71c71c7p+4, 0x1.0178860185e51p+2, false);
  ("cjpeg", 50480, 0x1.734edbfffffffp+18, 33, 2640, 33685, 0x1.6933333333332p+3, 0x1.5c1a3e556bdaep+2, false);
  ("equake", 55845, 0x1.9169bd1c13d1bp+18, 31, 2480, 30996, 0x1.a85c7d85c7d85p+3, 0x1.174410f47f533p+2, false);
  ("fft", 34629, 0x1.0e8ap+15, 0, 2570, 2570, 0x1.af2d9f2d9f2dap+3, 0x0p+0, true);
  ("vortex", 418583, 0x1.98c5cp+18, 0, 12366, 12366, 0x1.0ecbca2ccc88fp+5, 0x0p+0, true);
]
