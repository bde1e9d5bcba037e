(* The outside-in benchmark of the simulator and its analyzer.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --record            (prints expected.txt for the current code)

   Workloads (README.md says why each was chosen):
     figures   fig2-fig7 through Runner.run_all, rendered, CSVs written
     overload  ablation-energy and ablation-cluster through Runner.run_all
     batch     table2 and ablation-smp through Runner.run_all
     analyze   Staticcheck over the frozen corpus, SARIF and root lists

   --trace 0 repeats the workload's operation for S seconds on a pool of
   [pool_size] domains, checks every output against expected.txt and prints
   the end-to-end metrics.  --trace 1 runs the operation once on the pool,
   then rebuilds the same simulations serially, untraced and traced, with
   every reachable plug-in wrapped in a span (Replica, Spans), and prints
   the per-layer metrics.  The last line of standard output is one JSON
   object.

   Everything is measured from outside the program: the benchmark's own
   monotonic clock, Unix.times and the process-wide GC counters. *)

module Experiment = Experiments.Experiment

let scale = 0.02
let pool_size = min 2 (Stdlib.Domain.recommended_domain_count ())
let expected_file = "perfbench/expected.txt"
let corpus_archive = "perfbench/corpus.tar.gz"
let corpus_roots = [ "lib"; "bin"; "bench"; "examples" ]
let tmp_root = ".perfbench-tmp"
let analyzer_passes = [ "parse"; "effect"; "lock"; "alloc"; "ownership"; "perfile" ]
let setup_probes = 5

type workload = Figures | Overload | Batch | Analyze

let workloads =
  [
    ("figures", Figures, [ "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7" ]);
    ("overload", Overload, [ "ablation-energy"; "ablation-cluster" ]);
    ("batch", Batch, [ "table2"; "ablation-smp" ]);
    ("analyze", Analyze, []);
  ]

let fail fmt = Printf.ksprintf failwith fmt
let now_ns = Spans.now_ns
let seconds_of_ns ns = float_of_int ns *. 1e-9

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median = Spans.median
let digest s = Digest.to_hex (Digest.string s)
let lines_text lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)

(* expected.txt: one "<id>\t<key>\t<value>" line per artefact, recorded on
   the code the benchmark was written against. *)
let load_expected path =
  let tbl = Hashtbl.create 64 in
  String.split_on_char '\n' (Report.read_file path)
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | [ id; key; v ] -> Hashtbl.replace tbl (id, key) v
         | [ "" ] -> ()
         | _ -> fail "%s: malformed line %S" path line);
  tbl

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---- set-up ------------------------------------------------------------- *)

type plan = {
  name : string;
  workload : workload;
  seed : int;
  ids : string list;
  expected : (string * string, string) Hashtbl.t;
  root : string;  (** the checkout, where the run started *)
  tmp : string;  (** absolute; this process's scratch directory *)
  csv : string;  (** [tmp/csv], where [figures] writes its CSVs *)
  experiments : Experiment.t list;  (** wrapped: bench seed, CSVs, capture *)
  outputs : Experiment.output option array;  (** filled by the pool's jobs *)
  job_ns : int array;
}

(* Runner.run_all runs every experiment with its canonical seed; the
   wrapper hands the benchmark's seed to [Experiment.t.run] instead, writes
   the CSVs for [figures], and keeps the output and the job's own wall time
   for the checks.  Each job writes only its own slot, and the caller reads
   them after the pool's domains are joined. *)
let wrap ~seed ~csv_dir outputs job_ns i (e : Experiment.t) =
  {
    e with
    Experiment.run =
      (fun ~seed:_ ~scale ->
        let t0 = now_ns () in
        let out = e.Experiment.run ~seed ~scale in
        Option.iter (fun dir -> ignore (Experiment.save_csvs out ~dir)) csv_dir;
        outputs.(i) <- Some out;
        job_ns.(i) <- now_ns () - t0;
        out);
  }

(* Unpacks the frozen analyzer corpus.  It ships as an archive so that its
   sources are data, not part of this tree's code. *)
let extract archive ~into =
  if not (Sys.file_exists archive) then fail "missing analyzer corpus %s" archive;
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdir_p into;
  let pid =
    Unix.create_process "tar" [| "tar"; "-xzf"; archive; "-C"; into |] Unix.stdin Unix.stdout
      Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "could not unpack %s" archive

let setup ?(record = false) ~name ~seed () =
  let workload, ids =
    match List.find_opt (fun (n, _, _) -> String.equal n name) workloads with
    | Some (_, w, ids) -> (w, ids)
    | None -> fail "unknown workload %S" name
  in
  let root = Sys.getcwd () in
  let expected =
    if record then Hashtbl.create 1 else load_expected (Filename.concat root expected_file)
  in
  let tmp = Filename.concat (Filename.concat root tmp_root) (string_of_int (Unix.getpid ())) in
  let csv = Filename.concat tmp "csv" in
  let n = List.length ids in
  let outputs = Array.make n None and job_ns = Array.make n 0 in
  let csv_dir = if workload = Figures then Some csv else None in
  let experiments =
    List.mapi
      (fun i id ->
        match Experiments.Registry.find id with
        | Some e -> wrap ~seed ~csv_dir outputs job_ns i e
        | None -> fail "experiment %s is not registered" id)
      ids
  in
  {
    name;
    workload;
    seed;
    ids;
    expected;
    root;
    tmp;
    csv;
    experiments;
    outputs;
    job_ns;
  }

(* The analyzer runs from the unpacked corpus, so that the paths in its
   output are the tree's own ([lib/...]). *)
let corpus_dir plan = Filename.concat plan.tmp "corpus"

(* Unpacks the analyzer's input before the first [analyze] operation.  This
   prepares the benchmark's data, not the program, so [setup_s] leaves it
   out. *)
let unpack_corpus plan =
  if plan.workload = Analyze then
    extract (Filename.concat plan.root corpus_archive) ~into:(corpus_dir plan)

(* Removes this process's scratch directory, and the scratch root once no
   other run is using it. *)
let remove_scratch plan =
  remove_tree plan.tmp;
  let scratch = Filename.dirname plan.tmp in
  if Sys.file_exists scratch && Sys.readdir scratch = [||] then Sys.rmdir scratch

let expected plan id key =
  match Hashtbl.find_opt plan.expected (id, key) with
  | Some v -> v
  | None -> fail "%s has no entry %s/%s" expected_file id key

(* Simulated seconds one operation advances: recorded with the digests
   (what the rebuilds measure on the reference code) and re-checked by
   every traced run.  For [analyze], which simulates nothing, the unit of
   work is one analysed kLOC of the unpacked corpus. *)
let work_s plan =
  if plan.workload = Analyze then
    let sources =
      Report.collect_sources (List.map (Filename.concat (corpus_dir plan)) corpus_roots)
    in
    List.fold_left
      (fun acc path ->
        acc +. float_of_int (List.length (String.split_on_char '\n' (Report.read_file path)) - 1))
      0.0 sources
    /. 1000.0
  else List.fold_left (fun acc id -> acc +. float_of_string (expected plan id "sim_s")) 0.0 plan.ids

(* ---- one operation -------------------------------------------------------- *)

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_delta (g0 : Gc.stat) (g1 : Gc.stat) =
  {
    minor_words = g1.minor_words -. g0.minor_words;
    promoted_words = g1.promoted_words -. g0.promoted_words;
    minor_collections = g1.minor_collections - g0.minor_collections;
    major_collections = g1.major_collections - g0.major_collections;
  }

type analysis = {
  issues : int;
  passes : (string * float) list;
  sarif_ns : int;
  roots_ns : int;
  sarif : string;
  alloc_roots : string;
  shard_roots : string;
}

type pass = {
  wall_ns : int;
  cpu_s : float;
  gc : gc_delta;
  attempted : int;
  failed : int;
  report : Runner.report option;
  analysis : analysis option;
}

let analyze ?clock () =
  let issues, passes = Staticcheck.analyze_paths_timed ~jobs:1 ?clock corpus_roots in
  let t1 = now_ns () in
  let sarif = Staticcheck.Sarif.to_string ~tool:"staticcheck" issues in
  let t2 = now_ns () in
  let alloc_roots = lines_text (Staticcheck.alloc_roots_of_paths corpus_roots) in
  let shard_roots = lines_text (Staticcheck.shard_roots_of_paths corpus_roots) in
  let t3 = now_ns () in
  {
    issues = List.length issues;
    passes;
    sarif_ns = t2 - t1;
    roots_ns = t3 - t2;
    sarif;
    alloc_roots;
    shard_roots;
  }

let complain plan what = Printf.printf "MISMATCH %s: %s\n%!" plan.name what

let check_analysis plan a =
  List.for_all
    (fun (key, text) ->
      String.equal (digest text) (expected plan "analyze" key)
      || (complain plan ("analyze " ^ key ^ " differs from the recorded output"); false))
    [ ("sarif", a.sarif); ("alloc-roots", a.alloc_roots); ("shard-roots", a.shard_roots) ]

(* The frames of one output as (stem, CSV text): read back from the files
   the operation wrote, or rendered here when it wrote none. *)
let frame_csvs plan (out : Experiment.output) =
  List.map
    (fun (stem, frame) ->
      let text =
        if plan.workload = Figures then
          Report.read_file
            (Filename.concat plan.csv (Printf.sprintf "%s-%s.csv" out.Experiment.id stem))
        else Series.Frame.to_csv frame
      in
      (stem, text))
    out.Experiment.frames

let check_job plan i (job : Runner.job) =
  let id = job.Runner.id in
  match (job.Runner.status, plan.outputs.(i)) with
  | Runner.Failed msg, _ ->
      complain plan (id ^ " raised " ^ msg);
      false
  | Runner.Done, None ->
      complain plan (id ^ " left no output");
      false
  | Runner.Done, Some out ->
      let csvs = frame_csvs plan out in
      let stems = String.concat "," (List.map fst csvs) in
      let ok_render = String.equal (digest job.Runner.rendered) (expected plan id "render") in
      let ok_stems = String.equal stems (expected plan id "frames") in
      let ok_csvs =
        List.for_all
          (fun (stem, text) -> String.equal (digest text) (expected plan id ("csv:" ^ stem)))
          csvs
      in
      if not ok_render then complain plan (id ^ " rendered output differs");
      if not (ok_stems && ok_csvs) then complain plan (id ^ " CSV output differs");
      ok_render && ok_stems && ok_csvs

(* One operation of the workload, timed from outside, then checked. *)
let run_pass ?clock ?(check = true) ?(pool_size = pool_size) plan =
  Array.fill plan.outputs 0 (Array.length plan.outputs) None;
  Array.fill plan.job_ns 0 (Array.length plan.job_ns) 0;
  remove_tree plan.csv;
  if plan.workload = Analyze then Sys.chdir (corpus_dir plan);
  let g0 = Gc.quick_stat () in
  let c0 = cpu_now () in
  let t0 = now_ns () in
  let outcome =
    match plan.workload with
    | Analyze -> ( try Ok (`Analysis (analyze ?clock ())) with e -> Error e)
    | Figures | Overload | Batch -> (
        try Ok (`Report (Runner.run_all ~pool_size ~scale ~experiments:plan.experiments ()))
        with e -> Error e)
  in
  let wall_ns = now_ns () - t0 in
  let cpu_s = cpu_now () -. c0 in
  let gc = gc_delta g0 (Gc.quick_stat ()) in
  Sys.chdir plan.root;
  let base = { wall_ns; cpu_s; gc; attempted = 1; failed = 1; report = None; analysis = None } in
  match outcome with
  | Error e ->
      complain plan ("operation raised " ^ Printexc.to_string e);
      { base with attempted = max 1 (List.length plan.ids) }
  | Ok (`Analysis a) ->
      let ok = (not check) || check_analysis plan a in
      { base with failed = (if ok then 0 else 1); analysis = Some a }
  | Ok (`Report r) ->
      let failed =
        if not check then 0
        else List.length (List.filter not (List.mapi (check_job plan) r.Runner.jobs))
      in
      { base with attempted = List.length r.Runner.jobs; failed; report = Some r }

(* ---- output --------------------------------------------------------------- *)

type metric = { key : string; value : float; unit_ : string }

(* A metric that is not a finite number makes the run incorrect. *)
let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun m -> Printf.printf "  %-36s %18.6f %s\n" m.key m.value m.unit_) metrics;
  let correct = correct && List.for_all (fun m -> Float.is_finite m.value) metrics in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.key
          (if Float.is_finite m.value then m.value else 0.0)
          m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* [deadline ~seconds] is a predicate, called after each round of work:
   true while another round as long as the last one still ends within
   [seconds] of the call to [deadline]. *)
let deadline ~seconds =
  let t_start = now_ns () and t_last = ref (now_ns ()) in
  fun () ->
    let t = now_ns () in
    let round = t - !t_last in
    t_last := t;
    seconds_of_ns (t - t_start + round) <= seconds

(* ---- --trace 0: end-to-end ------------------------------------------------ *)

(* Peak major-heap size of one operation run serially in a fresh copy of
   this program.  On one domain the collector's schedule, and so the peak,
   is a deterministic function of the allocations; on the pool it depends
   on how the domains interleave. *)
(* Runs a fresh copy of this program with [flag] and returns the clock at
   its start and the one line it prints. *)
let probe flag ~name ~seed =
  let exe = Sys.executable_name in
  let t0 = now_ns () in
  let ic =
    Unix.open_process_args_in exe
      [| exe; flag; "--workload"; name; "--seed"; string_of_int seed |]
  in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> (t0, String.trim l)
  | _ -> fail "%s for %s failed" flag name

(* Set-up time from process start to the first operation: the probe does
   the set-up and prints the clock when it is done. *)
let probe_setup ~name ~seed =
  let t0, line = probe "--setup-probe" ~name ~seed in
  seconds_of_ns (int_of_string line - t0)

let setup_probe ~name ~seed =
  let plan = setup ~name ~seed () in
  Printf.printf "%d\n%!" (now_ns ());
  remove_scratch plan

(* Allocation of one operation run serially in a fresh copy of this
   program: (peak major heap in MB, minor words, promoted words).  On one
   domain the collector's schedule is a function of the allocations alone,
   so these figures repeat exactly; on the pool, promotions and the peak
   depend on how the domains interleave.  The measured passes check the
   outputs. *)
let probe_heap ~name ~seed =
  match String.split_on_char ' ' (snd (probe "--heap-probe" ~name ~seed)) with
  | [ peak; minor; promoted ] ->
      (float_of_string peak, float_of_string minor, float_of_string promoted)
  | _ -> fail "--heap-probe for %s printed no figures" name

let heap_probe ~name ~seed =
  let plan = setup ~name ~seed () in
  unpack_corpus plan;
  (* Start the pass from an empty minor heap and a finished major cycle, so
     that set-up's allocations (which vary with the process id and the
     arguments) cannot shift the collector's schedule. *)
  Gc.full_major ();
  let pass = run_pass ~check:false ~pool_size:1 plan in
  remove_scratch plan;
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  Printf.printf "%.17g %.17g %.17g\n%!"
    (float_of_int (top * (Sys.word_size / 8)) /. 1048576.0)
    pass.gc.minor_words pass.gc.promoted_words

let end_to_end ~name ~seed ~seconds =
  let ref_before = Reference.time () in
  let burst = List.init setup_probes (fun _ -> probe_setup ~name ~seed) in
  let burst_speed = Reference.speed ref_before (Reference.time ()) in
  let peak_heap_mb, minor_words, promoted_words = probe_heap ~name ~seed in
  let plan = setup ~name ~seed () in
  unpack_corpus plan;
  let work_s = work_s plan in
  let within = deadline ~seconds in
  (* Each pass is bracketed by reference runs, (pass, ref before, ref after),
     and followed by one more set-up probe, so that the set-up figure
     samples the whole run and not one moment of it. *)
  let rec loop acc probes ref_prev =
    let more = within () in
    if List.length acc >= 3 && not more then (List.rev acc, probes)
    else begin
      let p = run_pass plan in
      let ref_next = Reference.time () in
      let probe = probe_setup ~name ~seed *. Reference.speed ref_next ref_next in
      loop ((p, ref_prev, ref_next) :: acc) (probe :: probes) ref_next
    end
  in
  let runs, probes = loop [] (List.map (fun s -> s *. burst_speed) burst) (Reference.time ()) in
  remove_scratch plan;
  let setup_s = median probes in
  let passes = List.map (fun (p, _, _) -> p) runs in
  let work_ms = work_s *. 1000.0 in
  (* Times at the reference speed, pass by pass. *)
  let med_at_speed f = median (List.map (fun (p, r0, r1) -> f p *. Reference.speed r0 r1) runs) in
  let wall_s = med_at_speed (fun p -> seconds_of_ns p.wall_ns) in
  let metrics =
    [
      { key = "wall_s"; value = wall_s; unit_ = "s" };
      { key = "cpu_s"; value = med_at_speed (fun p -> p.cpu_s); unit_ = "s" };
      { key = "sim_s_per_wall_s"; value = work_s /. wall_s; unit_ = "s/s" };
      { key = "minor_words_per_sim_ms"; value = minor_words /. work_ms; unit_ = "words/ms" };
      { key = "promoted_words_per_sim_ms"; value = promoted_words /. work_ms; unit_ = "words/ms" };
      { key = "peak_heap_mb"; value = peak_heap_mb; unit_ = "MB" };
      { key = "setup_s"; value = setup_s; unit_ = "s" };
    ]
  in
  let attempted = List.fold_left (fun acc p -> acc + p.attempted) 0 passes in
  let failed = List.fold_left (fun acc p -> acc + p.failed) 0 passes in
  let ms ns = Printf.sprintf " %.1f" (float_of_int ns *. 1e-6) in
  Printf.printf "%s: %d passes of %s, seed %d, pool %d, scale %g\n" name (List.length passes)
    (if plan.workload = Analyze then "the analyzer" else String.concat " " plan.ids)
    seed pool_size scale;
  Printf.printf "  raw pass wall (ms):%s\n  reference runs (ms):%s\n"
    (String.concat "" (List.map (fun p -> ms p.wall_ns) passes))
    (String.concat "" (ms (match runs with (_, r, _) :: _ -> r | [] -> 0)
                       :: List.map (fun (_, _, r) -> ms r) runs));
  print_result ~correct:(failed = 0) ~attempted ~failed metrics

(* ---- --trace 1: per layer ------------------------------------------------- *)

type rebuild = { id : string; result : Replica.result; model : Replica.model; ns : int }

(* One serial pass of the rebuilds.  The operation's own rendering and
   (figures) CSV export are repeated on its recorded output, so the pass
   covers the same layers as the operation. *)
let rebuild_pass plan ~traced =
  List.mapi
    (fun i id ->
      let rebuild =
        match Replica.find id with Some r -> r | None -> fail "no rebuild for %s" id
      in
      let ctx = { Replica.traced; model = Replica.model () } in
      let span id f = if traced then Spans.with_span id f else f () in
      let t0 = now_ns () in
      let result = rebuild ctx ~scale in
      Option.iter
        (fun out ->
          span Spans.experiments_render (fun () -> ignore (Experiment.print_to_string out));
          if plan.workload = Figures then
            span Spans.experiments_csv (fun () -> ignore (Experiment.save_csvs out ~dir:plan.csv)))
        plan.outputs.(i);
      { id; result; model = ctx.Replica.model; ns = now_ns () - t0 })
    plan.ids

type traced = {
  traced_ns : int;  (** set-up plus every traced pass *)
  untraced_ns : int;  (** set-up plus the same passes untraced *)
  attempted : int;
  failed : int;
  op : pass;  (** the first operation, on the pool *)
  traced_passes : int;  (** traced rebuild passes, or timed analyses *)
  model : Replica.model;  (** one traced pass's counts *)
  passes : (string * float) list;  (** staticcheck per-pass seconds, summed *)
  analysis_ns : int * int;  (** staticcheck SARIF rendering, root listings *)
  findings : int;
}

(* Simulation workloads: the operation once on the pool (its outputs are
   what the rebuilds must reproduce), then untraced/traced rebuild pairs
   for [seconds].  The traced rebuild must match the untraced one byte for
   byte, and both the operation's output and the recorded simulated time. *)
let traced_sim plan ~seconds ~setup_ns =
  let op = run_pass plan in
  let failed = ref op.failed and attempted = ref op.attempted in
  let traced_ns = ref setup_ns and untraced_ns = ref setup_ns in
  let model = Replica.model () and traced_passes = ref 0 in
  let check (plain : rebuild) (t : rebuild) out =
    let fp r = Replica.fingerprint r.result r.model in
    let sim_s = Printf.sprintf "%.6f" (float_of_int t.model.Replica.sim_us *. 1e-6) in
    if not (String.equal (fp plain) (fp t)) then
      Some "the traced rebuild differs from the untraced one"
    else if not (match out with Some out -> Replica.matches t.result out | None -> false) then
      Some "the rebuild differs from the operation's output"
    else if not (String.equal sim_s (expected plan t.id "sim_s")) then
      Some "simulated time differs from the recorded one"
    else None
  in
  let within = deadline ~seconds in
  let rec loop () =
    match
      let plain = rebuild_pass plan ~traced:false in
      (plain, rebuild_pass plan ~traced:true)
    with
    | exception e ->
        complain plan ("a rebuild raised " ^ Printexc.to_string e);
        attempted := !attempted + List.length plan.ids;
        failed := !failed + List.length plan.ids
    | plain, traced ->
        incr traced_passes;
        List.iteri
          (fun i (p, t) ->
            incr attempted;
            untraced_ns := !untraced_ns + p.ns;
            traced_ns := !traced_ns + t.ns;
            if !traced_passes = 1 then Replica.absorb model t.model;
            Option.iter
              (fun why ->
                complain plan (t.id ^ ": " ^ why);
                incr failed)
              (check p t plan.outputs.(i)))
          (List.combine plain traced);
        if within () then loop ()
  in
  loop ();
  {
    traced_ns = !traced_ns;
    untraced_ns = !untraced_ns;
    attempted = !attempted;
    failed = !failed;
    op;
    traced_passes = !traced_passes;
    model;
    passes = List.map (fun key -> (key, 0.0)) analyzer_passes;
    analysis_ns = (0, 0);
    findings = 0;
  }

(* [analyze]: the analyzer's own per-pass clock is the trace.  Timed and
   untimed analyses alternate for [seconds]; all are checked. *)
let traced_analyze plan ~seconds ~setup_ns =
  let runs = ref [] and plain_ns = ref 0 in
  let within = deadline ~seconds in
  let rec loop () =
    runs := run_pass ~clock:Unix.gettimeofday plan :: !runs;
    let plain = run_pass plan in
    plain_ns := !plain_ns + plain.wall_ns;
    runs := plain :: !runs;
    if within () then loop ()
  in
  loop ();
  let runs = List.rev !runs in
  let timed = List.filteri (fun i _ -> i mod 2 = 0) runs in
  let analyses = List.filter_map (fun p -> p.analysis) timed in
  let sum f = List.fold_left (fun acc (a : analysis) -> acc + f a) 0 analyses in
  let pass_s key =
    List.fold_left
      (fun acc (a : analysis) -> acc +. Option.value ~default:0.0 (List.assoc_opt key a.passes))
      0.0 analyses
  in
  {
    traced_ns = setup_ns + List.fold_left (fun acc p -> acc + p.wall_ns) 0 timed;
    untraced_ns = setup_ns + !plain_ns;
    attempted = List.fold_left (fun acc (p : pass) -> acc + p.attempted) 0 runs;
    failed = List.fold_left (fun acc (p : pass) -> acc + p.failed) 0 runs;
    op = List.hd runs;
    traced_passes = List.length analyses;
    model = Replica.model ();
    passes =
      List.map (fun key -> (key, pass_s key)) analyzer_passes;
    analysis_ns = (sum (fun a -> a.sarif_ns), sum (fun a -> a.roots_ns));
    findings = (match analyses with a :: _ -> a.issues | [] -> 0);
  }

let per_layer ~name ~seed ~seconds =
  let cost = Spans.calibrate () in
  let t_begin = now_ns () in
  let plan = Spans.with_span Spans.setup_build (fun () -> setup ~name ~seed ()) in
  let setup_ns = now_ns () - t_begin in
  unpack_corpus plan;
  let r =
    if plan.workload = Analyze then traced_analyze plan ~seconds ~setup_ns
    else traced_sim plan ~seconds ~setup_ns
  in
  remove_scratch plan;
  let total = float_of_int r.traced_ns in
  let share ns = ns /. total in
  let count key v = { key; value = float_of_int v; unit_ = "count" } in
  let seconds key value = { key; value; unit_ = "s" } in
  let ratio key value = { key; value; unit_ = "ratio" } in
  let span_ids = List.init Spans.reported Fun.id in
  let span_metrics =
    List.concat_map
      (fun id ->
        let name = Spans.names.(id) in
        let calls = Spans.calls.(id) in
        let per v = if calls = 0 then 0.0 else v /. float_of_int calls in
        let self = Spans.self_ns cost id in
        (* Calls per traced operation; set-up happens once per run. *)
        let ops = if id = Spans.setup_build then 1 else max 1 r.traced_passes in
        [
          { key = name ^ ".calls"; value = float_of_int calls /. float_of_int ops; unit_ = "count" };
          { key = name ^ ".self_ns_per_call"; value = per self; unit_ = "ns" };
          { key = name ^ ".words_per_call"; value = per (Spans.self_words cost id); unit_ = "words" };
          ratio (name ^ ".share") (share self);
        ])
      span_ids
  in
  let sarif_ns, roots_ns = r.analysis_ns in
  let staticcheck_ns =
    List.fold_left (fun acc (_, s) -> acc +. (s *. 1e9)) 0.0 r.passes
    +. float_of_int (sarif_ns + roots_ns)
  in
  let spans_ns = List.fold_left (fun acc id -> acc +. Spans.self_ns cost id) 0.0 span_ids in
  let overhead_ns = Spans.overhead_ns cost in
  (* What no span or analyzer pass accounts for: traced wall = span self
     times + analyzer passes + calibrated span cost + this remainder. *)
  let unattributed_ns = total -. spans_ns -. staticcheck_ns -. overhead_ns in
  let runner =
    match r.op.report with
    | Some _ ->
        let makespan = seconds_of_ns r.op.wall_ns in
        let busy = seconds_of_ns (Array.fold_left ( + ) 0 plan.job_ns) in
        let capacity = float_of_int pool_size *. makespan in
        [
          seconds "runner.makespan_s" makespan;
          seconds "runner.idle_s" (capacity -. busy);
          ratio "runner.efficiency" (busy /. capacity);
        ]
    | None ->
        [ seconds "runner.makespan_s" 0.0; seconds "runner.idle_s" 0.0; ratio "runner.efficiency" 0.0 ]
  in
  (* Analyzer figures are per analysis, like the span figures per call. *)
  let per_analysis v =
    if plan.workload = Analyze then v /. float_of_int (max 1 r.traced_passes) else v
  in
  let m = r.model in
  let quantum_us = Sim_time.to_us Hypervisor.Host.default_config.Hypervisor.Host.quantum in
  let picks = Spans.calls.(Spans.sched_pick) in
  let metrics =
    span_metrics
    @ [
        ratio "sched.pick.useful_ratio"
          (if picks = 0 then 0.0
           else float_of_int Spans.calls.(Spans.sched_charge) /. float_of_int picks);
      ]
    @ runner
    @ [
        count "gc.minor_collections" r.op.gc.minor_collections;
        count "gc.major_collections" r.op.gc.major_collections;
        { key = "gc.promoted_words"; value = r.op.gc.promoted_words; unit_ = "words" };
      ]
    @ List.map (fun (pass, s) -> seconds ("staticcheck." ^ pass ^ "_s") (per_analysis s)) r.passes
    @ [
        seconds "staticcheck.sarif_s" (per_analysis (float_of_int sarif_ns *. 1e-9));
        seconds "staticcheck.roots_s" (per_analysis (float_of_int roots_ns *. 1e-9));
        count "staticcheck.findings" r.findings;
        count "model.ticks" (m.sim_us / quantum_us);
        count "model.freq_transitions" m.freq_transitions;
        count "model.requests_injected" m.requests_injected;
        count "model.requests_completed" m.requests_completed;
        count "model.requests_timed_out" m.requests_timed_out;
        count "model.pas_evaluations" m.pas_evaluations;
        count "model.migrations" m.migrations;
        { key = "model.energy_j"; value = m.energy_j; unit_ = "J" };
        ratio "trace.overhead_share" (float_of_int (r.traced_ns - r.untraced_ns) /. total);
        ratio "trace.calibrated_share" (share overhead_ns);
        ratio "trace.unattributed_share" (share unattributed_ns);
      ]
  in
  Printf.printf
    "%s: traced run, seed %d: traced wall %.6f s = spans %.6f + analyzer %.6f + span cost \
     %.6f + unattributed %.6f (untraced %.6f s)\n"
    name seed (total *. 1e-9) (spans_ns *. 1e-9) (staticcheck_ns *. 1e-9) (overhead_ns *. 1e-9)
    (unattributed_ns *. 1e-9)
    (float_of_int r.untraced_ns *. 1e-9);
  print_result ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed metrics

(* ---- --record ------------------------------------------------------------- *)

(* Prints expected.txt for the code as it stands: digests of every output
   of one operation per workload, and each experiment's simulated time as
   its rebuild measures it. *)
let record () =
  List.iter
    (fun (name, _, _) ->
      let plan = setup ~record:true ~name ~seed:0 () in
      unpack_corpus plan;
      let op = run_pass ~check:false plan in
      let line id key v = Printf.printf "%s\t%s\t%s\n" id key v in
      (match (op.report, op.analysis) with
      | _, Some a ->
          line "analyze" "sarif" (digest a.sarif);
          line "analyze" "alloc-roots" (digest a.alloc_roots);
          line "analyze" "shard-roots" (digest a.shard_roots)
      | Some report, None ->
          List.iteri
            (fun i (job : Runner.job) ->
              let id = job.Runner.id in
              let out =
                match plan.outputs.(i) with Some o -> o | None -> fail "%s failed" id
              in
              let csvs = frame_csvs plan out in
              line id "render" (digest job.Runner.rendered);
              line id "frames" (String.concat "," (List.map fst csvs));
              List.iter (fun (stem, text) -> line id ("csv:" ^ stem) (digest text)) csvs;
              let rebuild = Option.get (Replica.find id) in
              let ctx = { Replica.traced = false; model = Replica.model () } in
              let r = rebuild ctx ~scale in
              if not (Replica.matches r out) then fail "the rebuild of %s does not match" id;
              line id "sim_s"
                (Printf.sprintf "%.6f" (float_of_int ctx.Replica.model.Replica.sim_us *. 1e-6)))
            report.Runner.jobs
      | None, None -> fail "%s: no output to record" name);
      remove_scratch plan)
    workloads

(* ---- command line ----------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload figures|overload|batch|analyze --seed N --seconds S --trace 0|1\n\
    \       main.exe --record";
  exit 2

let () =
  if Option.is_some (Sys.getenv_opt "DVFS_SANITIZE") then begin
    prerr_endline "perfbench: refusing to run while DVFS_SANITIZE is set (it slows every check)";
    exit 2
  end;
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse opts = function
    | [] -> opts
    | ("--workload" | "--seed" | "--seconds" | "--trace") as k :: v :: rest ->
        parse ((k, v) :: opts) rest
    | ("--setup-probe" | "--heap-probe" | "--record") as k :: rest -> parse ((k, "") :: opts) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int_arg k = match Option.bind (get k) int_of_string_opt with Some v -> v | None -> usage () in
  try
    if Option.is_some (get "--record") then record ()
    else begin
      let name = match get "--workload" with Some w -> w | None -> usage () in
      let seed = int_arg "--seed" in
      if Option.is_some (get "--heap-probe") then heap_probe ~name ~seed
      else if Option.is_some (get "--setup-probe") then setup_probe ~name ~seed
      else begin
        let seconds =
          match Option.bind (get "--seconds") float_of_string_opt with
          | Some s when s > 0.0 -> s
          | _ -> usage ()
        in
        match int_arg "--trace" with
        | 0 -> end_to_end ~name ~seed ~seconds
        | 1 -> per_layer ~name ~seed ~seconds
        | _ -> usage ()
      end
    end
  with Failure msg | Sys_error msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 1
