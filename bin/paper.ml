(** Reference numbers transcribed from the paper's figures, printed next
    to our measurements so every table is a direct paper-vs-measured
    comparison.  Approximate where only a bar chart is given. *)

let workloads =
  [
    "genome";
    "intruder";
    "kmeans-low";
    "kmeans-high";
    "labyrinth";
    "ssca2";
    "vacation-low";
    "vacation-high";
    "yada";
  ]

(* Figure 12: speedup over PMDK (bars; called-out values exact) *)
let fig12 =
  [
    ("Kamino-Tx", [ 1.6; 2.0; 1.6; 1.7; 1.1; 2.1; 1.7; 1.7; 1.5 ], 1.7);
    ("SPHT", [ 2.7; 3.0; 2.9; 3.1; 2.2; 2.6; 3.2; 3.1; 2.8 ], 2.8);
    ("SpecSPMT-DP", [ 2.7; 2.8; 2.9; 3.2; 6.0; 2.1; 3.3; 3.4; 3.0 ], 3.0);
    ("SpecSPMT", [ 2.8; 3.1; 10.7; 10.3; 6.2; 2.3; 3.7; 3.9; 49.7 ], 5.1);
  ]

(* Figure 13: speedup over EDE *)
let fig13 =
  [
    ("HOOP", [ 1.15; 1.2; 1.05; 1.5; 1.05; 1.15; 1.2; 1.25; 0.95 ], 1.19);
    ("SpecHPMT-DP", [ 1.0; 1.0; 1.0; 1.0; 1.05; 0.95; 1.0; 1.0; 1.0 ], 1.0);
    ("SpecHPMT", [ 1.52; 1.5; 1.13; 1.78; 1.45; 1.3; 1.4; 1.42; 1.39 ], 1.41);
    ("no-log", [ 1.6; 1.6; 1.2; 1.9; 1.35; 1.45; 1.55; 1.55; 1.3 ], 1.5);
  ]

(* Figure 14: write-traffic reduction over EDE, percent *)
let fig14 =
  [
    ("HOOP", [ 35.0; 40.0; 55.0; 55.0; 15.0; 20.0; 25.0; 25.0; 10.0 ], 31.0);
    ("SpecHPMT-DP", [ 20.0; 20.0; 40.0; 40.0; 25.0; 10.0; 20.0; 20.0; 30.0 ], 25.0);
    ("SpecHPMT", [ 40.0; 40.0; 60.0; 60.0; 45.0; 30.0; 45.0; 45.0; 45.0 ], 45.0);
    ("no-log", [ 50.0; 55.0; 70.0; 70.0; 55.0; 45.0; 55.0; 55.0; 55.0 ], 56.0);
  ]

(* Figure 1: residual overhead over no-transaction versions, percent; the
   last entry of each is the overhead the paper reports for its own
   scheme *)
let fig1_sw =
  [ ("PMDK", 460.0); ("Kamino-Tx", 232.0); ("SPHT", 161.0); ("SpecSPMT", 10.0) ]

let fig1_hw = [ ("EDE", 50.0); ("HOOP", 29.0); ("SpecHPMT", 7.0) ]

(* Table 2: full-scale STAMP profiles *)
let table2 =
  [
    ("genome", 7.2, 2_489_218, 7_230_727);
    ("intruder", 20.5, 23_428_126, 106_976_163);
    ("kmeans-low", 101.0, 9_874_166, 266_600_674);
    ("kmeans-high", 101.0, 4_106_954, 110_887_006);
    ("labyrinth", 1420.0, 1_026, 184_190);
    ("ssca2", 16.0, 22_362_279, 89_449_114);
    ("vacation-low", 44.2, 4_194_304, 31_582_272);
    ("vacation-high", 67.8, 4_194_304, 43_950_938);
    ("yada", 175.6, 2_415_298, 57_844_629);
  ]

(* Section 4: hash-table log slowdown over the sequential log *)
let hashlog_slowdown = 3.2
