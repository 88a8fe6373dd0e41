package qos

import "testing"

// TestClassNames: the defined classes are valid and render as their
// metric labels; anything past them is invalid and cannot collide with
// a real name.
func TestClassNames(t *testing.T) {
	want := [NumClasses]string{"foreground", "background", "scavenger"}
	for c := Foreground; c < NumClasses; c++ {
		if !c.Valid() || c.String() != want[c] {
			t.Errorf("class %d: Valid=%v String=%q, want true %q", c, c.Valid(), c.String(), want[c])
		}
	}
	if Foreground != 0 || Background >= Scavenger {
		t.Error("classes are not ordered highest first from zero")
	}
	for _, c := range []Class{NumClasses, 7, 9, 255} {
		if c.Valid() {
			t.Errorf("class %d reported valid", c)
		}
		if c.String() == want[0] || c.String() == "" {
			t.Errorf("out-of-range class %d rendered as %q", c, c.String())
		}
	}
}
