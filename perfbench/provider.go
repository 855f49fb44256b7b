package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// provider is the synthetic REST data provider the wrappers fetch
// from. It renders every (source, release) payload once, in JSON, XML
// and CSV, and serves them over loopback, so wrapper fetches cross a
// real socket as they do against the paper's REST sources. A payload
// is served only once published: the governance steward publishes each
// new schema version just before registering it. The provider counts
// requests and bytes per path.
type provider struct {
	srv      *http.Server
	ln       net.Listener
	payloads map[string]payload

	mu      sync.RWMutex
	visible map[string]bool

	requests atomic.Int64
	bytes    atomic.Int64
	perPath  sync.Map // path -> *pathCount
}

type payload struct {
	ctype string
	body  []byte
}

type pathCount struct{ requests, bytes atomic.Int64 }

// newProvider renders the payloads of every release of srcs (all three
// formats) and starts serving on a loopback port.
func newProvider(srcs []*source) (*provider, error) {
	p := &provider{payloads: map[string]payload{}, visible: map[string]bool{}}
	for _, s := range srcs {
		for _, r := range s.releases {
			for _, f := range formats {
				p.payloads[pathFor(r, f)] = render(r, f)
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.ln = ln
	p.srv = &http.Server{Handler: p}
	go p.srv.Serve(ln)
	return p, nil
}

func pathFor(r *release, format string) string {
	return strings.TrimSuffix(r.path(), "."+r.format) + "." + format
}

func (p *provider) URL() string { return "http://" + p.ln.Addr().String() }

// publish makes the payloads of the given release paths visible in
// all formats; reset hides everything else.
func (p *provider) publish(paths ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, path := range paths {
		base := path[:strings.LastIndexByte(path, '.')]
		for _, f := range formats {
			p.visible[base+"."+f] = true
		}
	}
}

func (p *provider) reset(paths map[string]bool) {
	p.mu.Lock()
	p.visible = map[string]bool{}
	p.mu.Unlock()
	for path := range paths {
		p.publish(path)
	}
}

func (p *provider) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.RLock()
	ok := p.visible[r.URL.Path]
	p.mu.RUnlock()
	pl, found := p.payloads[r.URL.Path]
	if !ok || !found {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", pl.ctype)
	w.Header().Set("Content-Length", fmt.Sprint(len(pl.body)))
	n, _ := w.Write(pl.body)
	p.requests.Add(1)
	p.bytes.Add(int64(n))
	c, _ := p.perPath.LoadOrStore(r.URL.Path, &pathCount{})
	c.(*pathCount).requests.Add(1)
	c.(*pathCount).bytes.Add(int64(n))
}

// counts returns the requests and bytes served so far (all paths).
func (p *provider) counts() (requests, bytes int64) { return p.requests.Load(), p.bytes.Load() }

// pathCounts returns the requests and bytes served for one path.
func (p *provider) pathCounts(path string) (requests, bytes int64) {
	c, ok := p.perPath.Load(path)
	if !ok {
		return 0, 0
	}
	return c.(*pathCount).requests.Load(), c.(*pathCount).bytes.Load()
}

func (p *provider) Close() { p.srv.Close() }

// render writes a release's rows in one format. Field order follows the
// release's attributes; ints are written as numbers (JSON) or bare
// digits (XML, CSV), strings never parse as numbers, so every format
// yields the same inferred signature and values.
func render(r *release, format string) payload {
	var idx []int
	for f, a := range r.attrs {
		if a != "" {
			idx = append(idx, f)
		}
	}
	numeric := func(f int) bool { return r.src.fields[f].kind != kindText }
	var b bytes.Buffer
	switch format {
	case "json":
		b.WriteByte('[')
		for i, e := range r.keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('{')
			for k, f := range idx {
				if k > 0 {
					b.WriteByte(',')
				}
				name, _ := json.Marshal(r.attrs[f])
				b.Write(name)
				b.WriteByte(':')
				v := r.src.value(f, e)
				if numeric(f) {
					b.WriteString(v)
				} else {
					q, _ := json.Marshal(v)
					b.Write(q)
				}
			}
			b.WriteByte('}')
		}
		b.WriteByte(']')
		return payload{"application/json", b.Bytes()}
	case "xml":
		b.WriteString("<rows>")
		for _, e := range r.keys {
			b.WriteString("<row>")
			for _, f := range idx {
				fmt.Fprintf(&b, "<%s>%s</%s>", r.attrs[f], r.src.value(f, e), r.attrs[f])
			}
			b.WriteString("</row>")
		}
		b.WriteString("</rows>")
		return payload{"application/xml", b.Bytes()}
	default:
		for k, f := range idx {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(r.attrs[f])
		}
		b.WriteByte('\n')
		for _, e := range r.keys {
			for k, f := range idx {
				if k > 0 {
					b.WriteByte(',')
				}
				b.WriteString(r.src.value(f, e))
			}
			b.WriteByte('\n')
		}
		return payload{"text/csv", b.Bytes()}
	}
}
