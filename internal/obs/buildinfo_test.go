package obs

import (
	"strings"
	"testing"
)

func TestRegisterBuildInfo(t *testing.T) {
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `dynq_build_info{go_version="go`) {
		t.Errorf("no dynq_build_info with go_version label:\n%s", out)
	}
	if !strings.Contains(out, `revision=`) {
		t.Errorf("no revision label:\n%s", out)
	}
	if !strings.Contains(out, "dynq_uptime_seconds") {
		t.Errorf("no uptime gauge:\n%s", out)
	}
	// The build-info gauge is the constant 1.
	goVersion, revision := BuildInfo()
	if line := `dynq_build_info{go_version="` + goVersion + `",revision="` + revision + `"} 1`; !strings.Contains(out, line+"\n") {
		t.Errorf("no line %q:\n%s", line, out)
	}
}

func TestNewLogger(t *testing.T) {
	var b strings.Builder
	lg, err := NewLogger(&b, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hidden")
	lg.Info("visible", "k", "v")
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("debug line leaked at info level: %s", out)
	}
	if !strings.Contains(out, `"msg":"visible"`) || !strings.Contains(out, `"k":"v"`) {
		t.Errorf("json handler output wrong: %s", out)
	}
	if _, err := NewLogger(&b, "loud", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger(&b, "info", "xml"); err == nil {
		t.Error("bad format accepted")
	}
	NopLogger().Error("dropped") // must not panic, must not write anywhere visible
}
