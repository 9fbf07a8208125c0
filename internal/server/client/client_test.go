package client

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"dagsfc/internal/server"
)

// FuzzDecodeResponse: a response body decoded through a pooled exchange
// comes out as json.Unmarshal's reading of it into a fresh value — the same
// value and the same error text — whatever the exchange decoded before.
// The inputs run in order through one exchange, so a syntax error, a type
// error or a value trailed by whitespace must leave nothing behind for the
// body after it; each is read as one FlowInfo (CreateFlow, ReleaseFlow,
// Flow) and as a list of them (Flows).
func FuzzDecodeResponse(f *testing.F) {
	for _, seed := range []string{
		`{"id":1,"sfc":"1;2,3","src":0,"dst":2,"rate":1,"size":1,"alg":"mbbe","cost":{"total":3,"vnf":2,"link":1},` +
			`"created":"2026-03-04T05:06:07.00000089Z","expires_at":"2026-03-04T05:07:37Z","state":"active",` +
			`"protection":"backup","backup_active":true,"backup_cost":{"total":4,"vnf":3,"link":1},"failovers":1}` + "\n",
		`{"id":2,"sfc":"1","created":"2026-03-04T05:06:07+02:00","state":"evicted","last_error":"core: no feasible embedding","cause":"protection_lost"}`,
		`{"id":3,"sfc":"1"`, `{"id":4,"alg":"minv"}`,
		`{"id":"5"}`, `{"id":6}`,
		`{}}`, `{"id":7}`,
		`{"id":8} ` + "\n\t\r", `9 `, `{"state":"repairing"}`,
		`{"created":"yesterday"}`, `{"expires_at":null}`, `{"id":1e400}`, `{"ID":10,"SFC":"1"}`,
		`[{"id":11},{"id":12,"expires_at":"2026-03-04T05:07:37Z"}]`, `[{"id":"13"}]`,
		`null`, `0`, `"x"`, ``, ` `, `{`, `{"sfc":"\ud800"}`, "{\"sfc\":\"\xff\"}",
	} {
		f.Add([]byte(seed))
	}
	x := new(exchange)
	f.Fuzz(func(t *testing.T, body []byte) {
		x.buf.Reset()
		x.buf.Write(body)
		x.info = server.FlowInfo{} // as release leaves it
		err := x.buf.Decode(&x.info)
		var want server.FlowInfo
		wantErr := json.Unmarshal(body, &want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(x.info, want) {
			t.Fatalf("exchange reads %q as %+v, %v; json.Unmarshal as %+v, %v", body, x.info, err, want, wantErr)
		}
		var list, wantList []server.FlowInfo
		err = x.buf.Decode(&list)
		wantErr = json.Unmarshal(body, &wantList)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(list, wantList) {
			t.Fatalf("exchange reads %q as %+v, %v; json.Unmarshal as %+v, %v", body, list, err, wantList, wantErr)
		}
	})
}

// TestFlowInfoDecodeAllocs pins what a warm exchange pays to decode a
// FlowInfo: one object per non-empty string and one for ExpiresAt, none of
// encoding/json's own.
func TestFlowInfoDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const info = `{"id":7,"sfc":"1;2,3;4","src":0,"dst":2,"rate":1,"size":1,"alg":"mbbe",` +
		`"cost":{"total":3,"vnf":2,"link":1},"created":"2026-03-04T05:06:07.00000089Z",%s"state":"active","backup_cost":{"total":0,"vnf":0,"link":0}}` + "\n"
	x := new(exchange)
	for _, c := range []struct {
		ttl  string
		want float64
	}{
		{``, 3},
		{`"expires_at":"2026-03-04T05:07:37.00000089Z",`, 4},
	} {
		x.buf.Reset()
		fmt.Fprintf(&x.buf, info, c.ttl)
		decode := func() {
			x.info = server.FlowInfo{}
			if err := x.buf.Decode(&x.info); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		if got := testing.AllocsPerRun(100, decode); got != c.want {
			t.Errorf("FlowInfo decode with expires_at %q: %v allocations, want %v", c.ttl, got, c.want)
		}
	}
}
