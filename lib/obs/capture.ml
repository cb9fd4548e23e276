type request = {
  events : bool;
  events_format : Event_log.format;
  events_capacity : int option;
  series_period : float option;
  series_values : bool;
  series_watch : (int * int) list;
  profile : bool;
}

let none =
  {
    events = false;
    events_format = Event_log.Jsonl;
    events_capacity = None;
    series_period = None;
    series_values = false;
    series_watch = [];
    profile = false;
  }

let full ?(series_period = 1.) () =
  {
    none with
    events = true;
    series_period = Some series_period;
    series_values = true;
    profile = true;
  }

type captured = {
  event_log : Event_log.t option;
  series : Series.t option;
  profile : Profiler.report option;
}

let empty = { event_log = None; series = None; profile = None }
