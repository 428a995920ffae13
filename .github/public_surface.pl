#!/usr/bin/env perl
# One public surface: every `val` in lib/**/*.mli has a caller outside
# its own module in lib, bin, bench or examples, or an entry in the
# allow-list with a reason.
#
# Usage: perl .github/public_surface.pl [ALLOW_FILE]   (run from the repo root)
#
# A value `v` declared in lib/DIR/m.mli (possibly inside a nested
# `module S : sig ... end`) has a caller when some .ml file other than
# lib/DIR/m.ml mentions `M.v` (or `S.v` for a nested value), or `X.v`
# where that file binds `module X = ....M` (resp. `....S`).  Comments
# are not calls.  The scan is by name, so a same-named module elsewhere
# can hide an unused value; it never reports a used one.
#
# Allow-list lines: `DIR/Module.value  reason` (`DIR/Module.Sub.value`
# for nested values); `#` starts a comment.  Fails on any uncalled
# value missing from the list, on any entry without a reason, and on
# any entry that is stale (the value has a caller now, or is gone).
use strict;
use warnings;
use File::Find;

my $allow_file = shift // '.github/public_surface.allow';

# OCaml source minus comments (nested) and string-literal contents.
sub strip {
  my ($s) = @_;
  my $out = '';
  my $depth = 0;
  my $n = length $s;
  for (my $i = 0; $i < $n; $i++) {
    my $c = substr($s, $i, 1);
    my $two = substr($s, $i, 2);
    if ($two eq '(*') { $depth++; $i++; next }
    if ($depth > 0) {
      if ($two eq '*)') { $depth--; $i++ }
      elsif ($c eq "\n") { $out .= "\n" }
      next;
    }
    if ($c eq "'" && substr($s, $i, 4) =~ /^('(?:\\.|[^\\'])')/) {
      $i += length($1) - 1;
      $out .= ' ';
      next;
    }
    if ($c eq '"') {
      $out .= '"';
      for ($i++; $i < $n; $i++) {
        my $d = substr($s, $i, 1);
        if ($d eq '\\') { $i++; next }
        last if $d eq '"';
        $out .= "\n" if $d eq "\n";
      }
      $out .= '"';
      next;
    }
    $out .= $c;
  }
  return $out;
}

sub slurp {
  my ($f) = @_;
  open my $h, '<', $f or die "$f: $!";
  local $/;
  my $s = <$h>;
  close $h;
  return $s;
}

my (@mli, @ml);
find(sub { push @mli, $File::Find::name if /\.mli$/ }, 'lib');
for my $d (qw(lib bin bench examples)) {
  find(sub { push @ml, $File::Find::name if /\.ml$/ }, $d) if -d $d;
}
@mli = sort @mli;

# Per searched file: its stripped text and the module names it aliases.
my %text;
my %aliases;    # file -> { target module name -> [alias names] }
for my $f (@ml) {
  my $t = strip(slurp($f));
  $text{$f} = $t;
  while ($t =~ /\bmodule\s+([A-Z]\w*)\s*=\s*(?:[A-Z]\w*\.)*([A-Z]\w*)\b(?!\s*\()/g) {
    push @{ $aliases{$f}{$2} }, $1 if $1 ne $2;
  }
}

# A mention is not a call when it names a record field: a projection
# [x.M.v], or a field label [{ M.v = ...] / [; M.v = ...] /
# [with M.v = ...].
sub has_caller {
  my ($own, $mod, $val) = @_;
  for my $f (@ml) {
    next if $f eq $own;
    my @names = ($mod, @{ $aliases{$f}{$mod} // [] });
    my $re = join '|', map { quotemeta } @names;
    my $t = $text{$f};
    while ($t =~ /(?<![\w'])((?:[A-Z]\w*\.)*(?:$re))\.\Q$val\E(?![\w'])/g) {
      my ($start, $end) = ($-[0], $+[0]);
      my $before = substr($t, 0, $start);
      next if $before =~ /[a-z0-9_')\]]\.$/;
      next if $before =~ /(?:[{;]|\bwith)\s*$/ && substr($t, $end) =~ /^\s*=(?!=)/;
      return 1;
    }
  }
  return 0;
}

# Every exported value, keyed DIR/Module[.Sub].value.
my %exported;
my @uncalled;
for my $mli (@mli) {
  my ($dir, $base) = $mli =~ m{^lib/(.+)/([^/]+)\.mli$} or next;
  my $top = ucfirst $base;
  (my $own = $mli) =~ s/\.mli$/.ml/;
  my @path = ($top);
  my @stack;    # one entry per open `sig`/`struct`/`object`/`begin`: is it a submodule?
  for my $line (split /\n/, strip(slurp($mli))) {
    if ($line =~ /^\s*module\s+([A-Z]\w*)\s*:\s*sig\b/) {
      push @path, $1;
      push @stack, 1;
      next;
    }
    if ($line =~ /^\s*val\s+([a-z_][\w']*)\s*:/) {
      my $key = "$dir/" . join('.', @path) . ".$1";
      $exported{$key} = 1;
      push @uncalled, $key unless has_caller($own, $path[-1], $1);
    }
    for my $tok ($line =~ /\b(sig|struct|object|begin|end)\b/g) {
      if ($tok eq 'end') {
        pop @path if @stack && pop @stack;
      } else {
        push @stack, 0;
      }
    }
  }
}

my %allowed;
my $fail = 0;
open my $ah, '<', $allow_file or die "$allow_file: $!";
while (my $line = <$ah>) {
  next if $line =~ /^\s*(#|$)/;
  chomp $line;
  my ($key, $reason) = $line =~ /^(\S+)\s*(.*)$/;
  if ($reason eq '') { print "$allow_file: $key has no reason\n"; $fail = 1 }
  $allowed{$key} = 1;
}
close $ah;

my %uncalled = map { $_ => 1 } @uncalled;
for my $key (@uncalled) {
  next if $allowed{$key};
  print "no caller outside its module: $key\n";
  $fail = 1;
}
for my $key (sort keys %allowed) {
  if (!$exported{$key}) { print "stale allow-list entry (no such value): $key\n"; $fail = 1 }
  elsif (!$uncalled{$key}) { print "stale allow-list entry (it has a caller): $key\n"; $fail = 1 }
}
my $n = keys %exported;
my $a = keys %allowed;
print "$n exported values, $a allow-listed\n";
exit $fail;
