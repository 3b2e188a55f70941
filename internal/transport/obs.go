package transport

import "hns/internal/metrics"

// wireObs holds one transport's frame and byte counters, created once when
// the transport is constructed so the per-call cost is a few atomic adds.
// Series: transport_frames_total{transport,dir} and
// transport_bytes_total{transport,dir}, dir ∈ {tx, rx}.
type wireObs struct {
	txFrames, rxFrames *metrics.Counter
	txBytes, rxBytes   *metrics.Counter
	demuxErrs          *metrics.Counter
}

func newWireObs(transportName string) wireObs {
	r := metrics.Default()
	c := func(metric, dir string) *metrics.Counter {
		return r.Counter(metrics.Labels(metric, "transport", transportName, "dir", dir))
	}
	return wireObs{
		txFrames: c("transport_frames_total", "tx"),
		rxFrames: c("transport_frames_total", "rx"),
		txBytes:  c("transport_bytes_total", "tx"),
		rxBytes:  c("transport_bytes_total", "rx"),
		demuxErrs: r.Counter(metrics.Labels("mux_demux_errors_total",
			"transport", transportName)),
	}
}

// tx records one sent request frame.
func (o wireObs) tx(n int) {
	o.txFrames.Inc()
	o.txBytes.Add(int64(n))
}

// rx records one received reply frame.
func (o wireObs) rx(n int) {
	o.rxFrames.Inc()
	o.rxBytes.Add(int64(n))
}

// demux records a frame the tagged framing cannot place: a reply that
// matched no waiting call (an unknown or abandoned stream tag, an
// unparseable datagram), or a request in a foreign framing — a TCP
// connection without the preamble, a UDP datagram without a tag.
// Series: mux_demux_errors_total{transport}.
func (o wireObs) demux() {
	o.demuxErrs.Inc()
}
