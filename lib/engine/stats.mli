(** Descriptive statistics.

    [Running] accumulates mean/variance online (Welford) without storing
    samples; [Summary] computes percentiles from stored samples; [Histogram]
    bins values for distribution reports. *)

module Running : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; 0 with fewer than two samples. *)

  val stddev : t -> float
  val min : t -> float
  (** [nan] when empty. *)

  val max : t -> float
  (** [nan] when empty. *)

  val ci95 : t -> float
  (** Normal-approximation half-width of the 95% confidence interval of the
      mean: [1.96 * stddev / sqrt count].  [infinity] with fewer than two
      samples — no spread information means no claim, so a caller comparing
      against a tolerance never rejects on an empty accumulator. *)

  val reset : t -> unit
  (** Forget every sample; the accumulator behaves as freshly created. *)

  val merge : t -> t -> t
  (** Combined statistics of both accumulators (Chan's parallel formula). *)
end

module Summary : sig
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

  val of_array : float array -> t
  (** @raise Invalid_argument on an empty array. *)

  val percentile : float array -> float -> float
  (** [percentile sorted p] with [p] in [\[0,100\]], by linear interpolation.
      The array must already be sorted — on unsorted input the result is
      silently meaningless; use {!quantile_of_unsorted} when sortedness is
      not guaranteed.
      @raise Invalid_argument on an empty array or [p] out of range. *)

  val quantile_of_unsorted : float array -> float -> float
  (** {!percentile} on a sorted copy of the input (the original array is
      left untouched), so it is safe on samples in arrival order.
      @raise Invalid_argument on an empty array or [p] out of range. *)

  val pp : Format.formatter -> t -> unit
end

module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  (** @raise Invalid_argument if [bins <= 0] or [hi <= lo]. *)

  val add : t -> float -> unit
  (** Values outside [\[lo, hi)] are counted in saturated edge bins. *)

  val counts : t -> int array
  val total : t -> int
  val bin_bounds : t -> int -> float * float
  val pp : Format.formatter -> t -> unit
end
