type bounds = { d : int; c_rounds : int option; c_bits : int option }

type t = {
  metrics : Metrics.t option;
  trace : Trace.t option;
  bounds : bounds option;
}

let none = { metrics = None; trace = None; bounds = None }
let make ?metrics ?trace ?bounds () = { metrics; trace; bounds }
let of_metrics m = make ~metrics:m ()
let of_trace tr = make ~trace:tr ()
let bounds_spec ?c_rounds ?c_bits ~d () = { d; c_rounds; c_bits }
let metrics t = t.metrics
let trace t = t.trace
let bounds t = t.bounds
