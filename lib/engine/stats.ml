let inv_finite =
  Analysis.Invariant.register "stats.finite-sample"
    ~doc:"no NaN or infinity enters a running-statistics accumulator"

module Running = struct
  (* The float moments live in an all-float sub-record so every [add]
     stores into a flat float block (a mixed record would box each store).
     The sample count stays an int alongside it: first-sample detection by
     [n = 1] is exact where a NaN sentinel would not be. *)
  type acc = { mutable mean : float; mutable m2 : float; mutable mn : float; mutable mx : float }
  type t = { mutable n : int; acc : acc }

  let create () = { n = 0; acc = { mean = 0.0; m2 = 0.0; mn = nan; mx = nan } }

  (* Sanitizer path: runs only when Analysis.Config is enabled, and the
     checker's interface boxes the sample anyway. *)
  (* alloc: cold *)
  let[@inline never] checked x =
    Analysis.Check.finite inv_finite ~component:"stats.running" ~what:"sample" x

  let[@inline always] update t x =
    t.n <- t.n + 1;
    let a = t.acc in
    let delta = x -. a.mean in
    a.mean <- a.mean +. (delta /. float_of_int t.n);
    a.m2 <- a.m2 +. (delta *. (x -. a.mean));
    if t.n = 1 then begin
      a.mn <- x;
      a.mx <- x
    end
    else begin
      if x < a.mn then a.mn <- x;
      if x > a.mx then a.mx <- x
    end

  (* Inlined so a freshly computed sample reaches the flat accumulator
     without boxing at the call boundary. *)
  let[@inline] add t x =
    if Analysis.Config.enabled () then checked x;
    update t x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.acc.mean
  let variance t = if t.n < 2 then 0.0 else t.acc.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.acc.mn
  let max t = t.acc.mx

  let ci95 t =
    if t.n < 2 then infinity
    else 1.96 *. stddev t /. sqrt (float_of_int t.n)

  let reset t =
    t.n <- 0;
    let a = t.acc in
    a.mean <- 0.0;
    a.m2 <- 0.0;
    a.mn <- nan;
    a.mx <- nan

  let copy t =
    {
      n = t.n;
      acc = { mean = t.acc.mean; m2 = t.acc.m2; mn = t.acc.mn; mx = t.acc.mx };
    }

  let merge a b =
    if a.n = 0 then copy b
    else if b.n = 0 then copy a
    else begin
      let n = a.n + b.n in
      let delta = b.acc.mean -. a.acc.mean in
      let fa = float_of_int a.n and fb = float_of_int b.n and fn = float_of_int (a.n + b.n) in
      let mean = a.acc.mean +. (delta *. fb /. fn) in
      let m2 = a.acc.m2 +. b.acc.m2 +. (delta *. delta *. fa *. fb /. fn) in
      {
        n;
        acc = { mean; m2; mn = Stdlib.min a.acc.mn b.acc.mn; mx = Stdlib.max a.acc.mx b.acc.mx };
      }
    end
end

module Summary = struct
  type t = {
    count : int;
    mean : float;
    stddev : float;
    min : float;
    p25 : float;
    p50 : float;
    p75 : float;
    p90 : float;
    p99 : float;
    max : float;
  }

  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then invalid_arg "Stats.Summary.percentile: empty array";
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.Summary.percentile: p out of range";
    if n = 1 then sorted.(0)
    else begin
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
    end

  let quantile_of_unsorted samples p =
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    percentile sorted p

  let of_array samples =
    let n = Array.length samples in
    if n = 0 then invalid_arg "Stats.Summary.of_array: empty array";
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let running = Running.create () in
    Array.iter (Running.add running) samples;
    {
      count = n;
      mean = Running.mean running;
      stddev = Running.stddev running;
      min = sorted.(0);
      p25 = percentile sorted 25.0;
      p50 = percentile sorted 50.0;
      p75 = percentile sorted 75.0;
      p90 = percentile sorted 90.0;
      p99 = percentile sorted 99.0;
      max = sorted.(n - 1);
    }

  let pp ppf t =
    Format.fprintf ppf "n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f"
      t.count t.mean t.stddev t.min t.p50 t.p90 t.p99 t.max
end

module Histogram = struct
  type t = { lo : float; hi : float; width : float; counts : int array; mutable total : int }

  let create ~lo ~hi ~bins =
    if bins <= 0 then invalid_arg "Stats.Histogram.create: bins must be positive";
    if hi <= lo then invalid_arg "Stats.Histogram.create: hi must exceed lo";
    { lo; hi; width = (hi -. lo) /. float_of_int bins; counts = Array.make bins 0; total = 0 }

  let add t x =
    let bins = Array.length t.counts in
    let i =
      if x < t.lo then 0
      else if x >= t.hi then bins - 1
      else Stdlib.min (bins - 1) (int_of_float ((x -. t.lo) /. t.width))
    in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let counts t = Array.copy t.counts
  let total t = t.total

  let bin_bounds t i =
    if i < 0 || i >= Array.length t.counts then invalid_arg "Stats.Histogram.bin_bounds";
    let lo = t.lo +. (float_of_int i *. t.width) in
    (lo, lo +. t.width)

  let pp ppf t =
    let max_count = Array.fold_left Stdlib.max 1 t.counts in
    Array.iteri
      (fun i c ->
        let lo, hi = bin_bounds t i in
        let bar = String.make (c * 40 / max_count) '#' in
        Format.fprintf ppf "[%8.2f,%8.2f) %6d %s@." lo hi c bar)
      t.counts
end
