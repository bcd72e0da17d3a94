package trace

import (
	"bufio"
	"io"
	"sort"
	"strconv"

	"desiccant/internal/obs"
	"desiccant/internal/sim"
)

// Trace track layout: one synthetic process, with fixed tids for the
// engine / platform / manager tracks, one tid per instance and one per
// invocation span.
const (
	perfettoPid = 1
	tidEngine   = 0
	tidPlatform = 1
	tidManager  = 2
	tidInstBase = 1000    // instance ID i renders on tid 1000+i
	tidSpanBase = 1 << 20 // the i-th span in ID order renders on tid 2^20+i
)

// WritePerfetto renders an event stream and the invocation spans
// folded from it as Chrome trace-event JSON, loadable in
// ui.perfetto.dev or chrome://tracing. Layout: one track per instance
// (execution, boot/thaw, GC pauses, and reclamation as nested slices),
// one track each for the engine, platform, and manager (instants plus
// queue-depth and threshold counters), and flow arrows linking each
// reclamation back to the freeze that made the instance reclaimable.
// Then one track per span, in invocation-ID order (named "invo <id> ·
// <fn>", so the exemplar IDs the attribution summary prints are
// findable by name), whose slices are the span's phase tiling, with a
// flow arrow from the platform's submit instant into the track and one
// into each instance track the invocation ran on. spans may be nil.
//
// The JSON is hand-rolled — fixed field order, integer microsecond
// timestamps, sorted metadata — so identical inputs produce identical
// bytes, whatever the order of spans.
func WritePerfetto(w io.Writer, events []obs.Event, spans []*Span) error {
	pw := &perfettoWriter{bw: bufio.NewWriter(w)}
	pw.bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")

	pw.writeMetadata(events)
	flowFrom := make(map[int]sim.Time) // inst -> ts of its latest freeze
	for _, ev := range events {
		pw.writeEvent(ev, flowFrom)
	}
	pw.writeSpans(spans)

	pw.bw.WriteString("\n]}\n")
	return pw.bw.Flush()
}

// writeSpans emits one track per span, in invocation-ID order.
func (p *perfettoWriter) writeSpans(spans []*Span) {
	sorted := append([]*Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i, s := range sorted {
		tid := tidSpanBase + i
		invo := argInt("invo", s.ID)
		p.threadName(tid, "invo "+strconv.FormatInt(s.ID, 10)+" · "+s.Function)
		if len(s.Segments) > 0 {
			p.flowBetween("submit→span", "invoke", tidPlatform, s.Submit, tid, s.Segments[0].Start)
		}
		prevInst := -1
		for _, seg := range s.Segments {
			p.span(tid, seg.Phase.String(), "attribution", seg.Start, seg.Dur,
				invo+","+argInt("inst", int64(seg.Inst)))
			if seg.Inst >= 0 && seg.Inst != prevInst {
				p.flowBetween("span→inst", "invoke", tid, seg.Start, tidInstBase+seg.Inst, seg.Start)
				prevInst = seg.Inst
			}
		}
		p.instant(tid, s.Outcome.String(), "attribution", s.End,
			invo+","+argInt("latency_us", int64(s.Total())))
	}
}

type perfettoWriter struct {
	bw     *bufio.Writer
	wrote  bool // whether any event object has been written yet
	flowID int
}

// writeMetadata names the process and every track. Instance tracks
// are named from the first event that carries a function name and
// emitted in ascending instance-ID order.
func (p *perfettoWriter) writeMetadata(events []obs.Event) {
	p.processName("desiccant-sim")
	p.threadName(tidEngine, "engine")
	p.threadName(tidPlatform, "platform")
	p.threadName(tidManager, "manager")

	instName := make(map[int]string)
	for _, ev := range events {
		if ev.Inst < 0 {
			continue
		}
		if _, ok := instName[ev.Inst]; !ok {
			instName[ev.Inst] = ev.Name
		}
	}
	ids := make([]int, 0, len(instName))
	for id := range instName {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		label := "inst " + strconv.Itoa(id)
		if fn := instName[id]; fn != "" {
			label += " · " + fn
		}
		p.threadName(tidInstBase+id, label)
	}
}

func (p *perfettoWriter) writeEvent(ev obs.Event, flowFrom map[int]sim.Time) {
	tid := tidInstBase + ev.Inst
	switch ev.Kind {
	case obs.EvInvokeSubmit:
		p.instant(tidPlatform, "submit", "invoke", ev.Time,
			argStr("fn", ev.Name)+","+argInt("invo", ev.Invo))
	case obs.EvInvokeStart:
		p.span(tid, ev.Name, "invoke", ev.Time, ev.Dur,
			argInt("invo", ev.Invo)+","+argInt("gc_wall_us", ev.Aux)+","+argInt("fault_wall_us", ev.Bytes))
	case obs.EvInvokeComplete:
		p.instant(tid, "complete", "invoke", ev.Time,
			argStr("fn", ev.Name)+","+argInt("invo", ev.Invo)+","+argInt("latency_us", int64(ev.Dur)))
	case obs.EvInvokeDrop:
		p.instant(tidPlatform, "drop", "invoke", ev.Time,
			argStr("fn", ev.Name)+","+argInt("invo", ev.Invo)+","+argInt("reason", ev.Aux))
	case obs.EvColdBoot:
		// Emitted at boot completion; the slice covers the boot.
		p.span(tid, "cold-boot", "lifecycle", ev.Time-sim.Time(ev.Dur), ev.Dur,
			argStr("fn", ev.Name)+","+argInt("invo", ev.Invo)+","+argInt("budget_bytes", ev.Bytes))
	case obs.EvThaw:
		p.span(tid, "thaw", "lifecycle", ev.Time, ev.Dur,
			argInt("invo", ev.Invo)+","+argInt("reclaiming", ev.Aux))
	case obs.EvFreeze:
		p.instant(tid, "freeze", "lifecycle", ev.Time, argInt("resident_bytes", ev.Bytes))
		flowFrom[ev.Inst] = ev.Time
	case obs.EvEvict:
		reason := "pressure"
		switch ev.Aux {
		case obs.EvictKeepAlive:
			reason = "keepalive"
		case obs.EvictMigrate:
			reason = "migrate"
		}
		p.instant(tid, "evict", "lifecycle", ev.Time,
			argStr("reason", reason)+","+argInt("resident_bytes", ev.Bytes))
	case obs.EvDestroy:
		p.instant(tid, "destroy", "lifecycle", ev.Time, "")
	case obs.EvThreshold:
		p.counter(tidManager, "manager.threshold", ev.Time, "threshold", obs.FormatValue(ev.Val))
	case obs.EvActivation:
		p.instant(tidManager, "activation", "manager", ev.Time,
			argNum("used", ev.Val)+","+argInt("idle", ev.Aux))
	case obs.EvReclaimBegin:
		p.instant(tid, "reclaim-begin", "reclaim", ev.Time, "")
		if from, ok := flowFrom[ev.Inst]; ok {
			p.flowBetween("freeze→reclaim", "reclaim", tid, from, tid, ev.Time)
			delete(flowFrom, ev.Inst)
		}
	case obs.EvReclaimEnd:
		// Emitted at completion; the slice covers the reclamation.
		p.span(tid, "reclaim", "reclaim", ev.Time-sim.Time(ev.Dur), ev.Dur,
			argInt("released_bytes", ev.Bytes)+","+argInt("swapped_bytes", ev.Aux))
	case obs.EvReclaimSkipped:
		p.instant(tid, "reclaim-skipped (thawed)", "warning", ev.Time, argStr("fn", ev.Name))
	case obs.EvGCYoung:
		p.span(tid, "minor-gc", "gc", ev.Time, ev.Dur,
			argInt("invo", ev.Invo)+","+argInt("collected_bytes", ev.Bytes))
	case obs.EvGCFull:
		p.span(tid, "major-gc", "gc", ev.Time, ev.Dur,
			argInt("invo", ev.Invo)+","+argInt("collected_bytes", ev.Bytes))
	case obs.EvHeapResize:
		p.instant(tid, "heap-resize", "heap", ev.Time,
			argInt("before_bytes", ev.Aux)+","+argInt("after_bytes", ev.Bytes))
	case obs.EvPagesReleased:
		p.instant(tid, "pages-released", "heap", ev.Time, argInt("bytes", ev.Bytes))
	case obs.EvSwapOut:
		p.instant(tid, "swap-out", "heap", ev.Time, argInt("bytes", ev.Bytes))
	case obs.EvQueueDepth:
		p.counter(tidPlatform, "platform.queue", ev.Time, "depth", obs.FormatValue(ev.Val))
	case obs.EvEngineFire:
		p.instant(tidEngine, ev.Name, "engine", ev.Time, argNum("pending", ev.Val))
	case obs.EvWarning:
		p.instant(tidManager, ev.Name, "warning", ev.Time, "")
	case obs.EvOOMKill:
		p.instant(tid, "oom-kill", "lifecycle", ev.Time,
			argStr("fn", ev.Name)+","+argInt("invo", ev.Invo)+","+argInt("ran_us", int64(ev.Dur))+","+argInt("resident_bytes", ev.Bytes))
	case obs.EvFault:
		p.instant(tidManager, ev.Name, "chaos", ev.Time,
			argInt("invo", ev.Invo)+","+argInt("bytes", ev.Bytes)+","+argInt("aux", ev.Aux))
	case obs.EvReclaimRetry:
		p.instant(tid, "reclaim-retry", "reclaim", ev.Time,
			argInt("attempt", ev.Aux)+","+argInt("backoff_us", int64(ev.Dur)))
	case obs.EvSwapFallback:
		p.instant(tid, "swap-fallback", "reclaim", ev.Time, argInt("bytes", ev.Bytes))
	}
}

// --- low-level emitters; every object keeps a fixed field order ---

func (p *perfettoWriter) sep() {
	if p.wrote {
		p.bw.WriteString(",\n")
	}
	p.wrote = true
}

func (p *perfettoWriter) processName(name string) {
	p.sep()
	p.bw.WriteString("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":")
	p.bw.WriteString(strconv.Itoa(perfettoPid))
	p.bw.WriteString(",\"args\":{\"name\":")
	p.jsonString(name)
	p.bw.WriteString("}}")
}

func (p *perfettoWriter) threadName(tid int, name string) {
	p.sep()
	p.bw.WriteString("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":")
	p.bw.WriteString(strconv.Itoa(perfettoPid))
	p.bw.WriteString(",\"tid\":")
	p.bw.WriteString(strconv.Itoa(tid))
	p.bw.WriteString(",\"args\":{\"name\":")
	p.jsonString(name)
	p.bw.WriteString("}}")
}

func (p *perfettoWriter) head(name, ph, cat string, tid int, ts sim.Time) {
	p.sep()
	p.bw.WriteString("{\"name\":")
	p.jsonString(name)
	p.bw.WriteString(",\"ph\":\"")
	p.bw.WriteString(ph)
	p.bw.WriteString("\",\"cat\":\"")
	p.bw.WriteString(cat)
	p.bw.WriteString("\",\"pid\":")
	p.bw.WriteString(strconv.Itoa(perfettoPid))
	p.bw.WriteString(",\"tid\":")
	p.bw.WriteString(strconv.Itoa(tid))
	p.bw.WriteString(",\"ts\":")
	p.bw.WriteString(strconv.FormatInt(int64(ts), 10))
}

// span emits a complete ("X") slice.
func (p *perfettoWriter) span(tid int, name, cat string, ts sim.Time, dur sim.Duration, args string) {
	p.head(name, "X", cat, tid, ts)
	p.bw.WriteString(",\"dur\":")
	p.bw.WriteString(strconv.FormatInt(int64(dur), 10))
	p.args(args)
	p.bw.WriteString("}")
}

// instant emits a thread-scoped ("i") instant.
func (p *perfettoWriter) instant(tid int, name, cat string, ts sim.Time, args string) {
	p.head(name, "i", cat, tid, ts)
	p.bw.WriteString(",\"s\":\"t\"")
	p.args(args)
	p.bw.WriteString("}")
}

// counter emits a "C" counter sample.
func (p *perfettoWriter) counter(tid int, name string, ts sim.Time, key, val string) {
	p.head(name, "C", "counter", tid, ts)
	p.bw.WriteString(",\"args\":{\"")
	p.bw.WriteString(key)
	p.bw.WriteString("\":")
	p.bw.WriteString(val)
	p.bw.WriteString("}}")
}

// flowBetween emits a start/finish pair linking (fromTid, from) to
// (toTid, to), on one track or across two.
func (p *perfettoWriter) flowBetween(name, cat string, fromTid int, from sim.Time, toTid int, to sim.Time) {
	p.flowID++
	id := strconv.Itoa(p.flowID)
	p.head(name, "s", cat, fromTid, from)
	p.bw.WriteString(",\"id\":")
	p.bw.WriteString(id)
	p.bw.WriteString("}")
	p.head(name, "f", cat, toTid, to)
	p.bw.WriteString(",\"bp\":\"e\",\"id\":")
	p.bw.WriteString(id)
	p.bw.WriteString("}")
}

func (p *perfettoWriter) args(kv string) {
	if kv == "" {
		return
	}
	p.bw.WriteString(",\"args\":{")
	p.bw.WriteString(kv)
	p.bw.WriteString("}")
}

func (p *perfettoWriter) jsonString(s string) {
	p.bw.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			p.bw.WriteString("\\\"")
		case '\\':
			p.bw.WriteString("\\\\")
		default:
			if r < 0x20 {
				p.bw.WriteString("\\u")
				const hex = "0123456789abcdef"
				p.bw.WriteByte('0')
				p.bw.WriteByte('0')
				p.bw.WriteByte(hex[r>>4])
				p.bw.WriteByte(hex[r&0xf])
			} else {
				p.bw.WriteRune(r)
			}
		}
	}
	p.bw.WriteByte('"')
}

func argInt(key string, v int64) string {
	return "\"" + key + "\":" + strconv.FormatInt(v, 10)
}

func argNum(key string, v float64) string {
	return "\"" + key + "\":" + obs.FormatValue(v)
}

func argStr(key string, v string) string {
	// Function names and labels are plain identifiers; escape the
	// two characters that could break JSON anyway.
	out := "\"" + key + "\":\""
	for _, r := range v {
		switch r {
		case '"':
			out += "\\\""
		case '\\':
			out += "\\\\"
		default:
			out += string(r)
		}
	}
	return out + "\""
}
