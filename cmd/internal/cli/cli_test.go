package cli

import (
	"reflect"
	"testing"
)

func TestParseRanks(t *testing.T) {
	got, err := ParseRanks("1, 4,16")
	if err != nil || !reflect.DeepEqual(got, []int{1, 4, 16}) {
		t.Fatalf("ParseRanks = %v, %v", got, err)
	}
	for _, bad := range []string{"", "1,,2", "0", "-3", "two"} {
		if _, err := ParseRanks(bad); err == nil {
			t.Errorf("ParseRanks(%q) accepted", bad)
		}
	}
}
