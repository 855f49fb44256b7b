package rest

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteRowsMatchesWriteJSON: the streamed page document is byte for
// byte the one writeJSON marshals from the {"vars","rows"} map.
func TestWriteRowsMatchesWriteJSON(t *testing.T) {
	big := make([][]string, 2000) // > 32 KiB: several writes
	for i := range big {
		big[i] = []string{fmt.Sprintf("http://ex.org/attribute/%d", i), ""}
	}
	cases := []struct {
		vars []string
		rows [][]string
	}{
		{[]string{"c", "ghost"}, [][]string{{"http://ex.org/Player", ""}, {"<&>  \"q\" é", "x"}}},
		{[]string{"a"}, [][]string{}},
		{nil, [][]string{{}, {}}},
		{[]string{}, [][]string{}},
		{[]string{"s", "o"}, big},
	}
	for _, tc := range cases {
		want := httptest.NewRecorder()
		writeJSON(want, 200, map[string]any{"vars": tc.vars, "rows": tc.rows})
		var page []string
		for _, r := range tc.rows {
			page = append(page, r...)
		}
		got := httptest.NewRecorder()
		writeRows(got, tc.vars, page, len(tc.rows))
		if got.Body.String() != want.Body.String() {
			t.Errorf("vars %v, %d rows:\n got %.200q\nwant %.200q", tc.vars, len(tc.rows), got.Body.String(), want.Body.String())
		}
		if !json.Valid(got.Body.Bytes()) || !strings.HasSuffix(got.Body.String(), "}\n") {
			t.Errorf("vars %v: not one JSON document and a newline", tc.vars)
		}
	}
}
